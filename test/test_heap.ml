(* Heap file tests: chain growth, rid stability, deletion-space reuse,
   updates that relocate, and a model-based property. *)

module H = Storage.Heap
module T = Storage.Txn
module P = Storage.Pager

let with_heap f =
  let pager = P.create () in
  let heap = T.with_txn pager (fun txn -> H.create txn) in
  f pager heap

let basic =
  [ Alcotest.test_case "insert then get" `Quick (fun () ->
        with_heap (fun pager h ->
            let rid = T.with_txn pager (fun txn -> H.insert txn h "hello") in
            Alcotest.(check (option string)) "get" (Some "hello") (H.get (P.read pager) h rid)));
    Alcotest.test_case "iter in insertion order within a page" `Quick (fun () ->
        with_heap (fun pager h ->
            T.with_txn pager (fun txn ->
                for i = 1 to 10 do ignore (H.insert txn h (Printf.sprintf "r%d" i)) done);
            let out = ref [] in
            H.iter (P.read pager) h ~f:(fun _ d -> out := d :: !out);
            Alcotest.(check (list string))
              "order"
              (List.init 10 (fun i -> Printf.sprintf "r%d" (i + 1)))
              (List.rev !out)));
    Alcotest.test_case "chain grows past one page" `Quick (fun () ->
        with_heap (fun pager h ->
            let data = String.make 1000 'x' in
            T.with_txn pager (fun txn ->
                for _ = 1 to 50 do ignore (H.insert txn h data) done);
            Alcotest.(check bool) "several pages" true (H.page_count (P.read pager) h > 5);
            Alcotest.(check int) "all rows" 50 (H.count (P.read pager) h)));
    Alcotest.test_case "delete removes row" `Quick (fun () ->
        with_heap (fun pager h ->
            let rid = T.with_txn pager (fun txn -> H.insert txn h "x") in
            T.with_txn pager (fun txn -> ignore (H.delete txn h rid));
            Alcotest.(check (option string)) "gone" None (H.get (P.read pager) h rid);
            Alcotest.(check int) "count" 0 (H.count (P.read pager) h)));
    Alcotest.test_case "deleted space is reused" `Quick (fun () ->
        with_heap (fun pager h ->
            let data = String.make 1000 'x' in
            let rids =
              T.with_txn pager (fun txn -> List.init 40 (fun _ -> H.insert txn h data))
            in
            let pages_before = H.page_count (P.read pager) h in
            T.with_txn pager (fun txn -> List.iter (fun r -> ignore (H.delete txn h r)) rids);
            T.with_txn pager (fun txn ->
                for _ = 1 to 40 do ignore (H.insert txn h data) done);
            let pages_after = H.page_count (P.read pager) h in
            Alcotest.(check bool) "no significant growth" true (pages_after <= pages_before + 1)));
    Alcotest.test_case "a record of max_record bytes fits; a longer one leaves the chain" `Quick
      (fun () ->
        with_heap (fun pager h ->
            T.with_txn pager (fun txn ->
                ignore (H.insert txn h "x");
                Alcotest.(check bool) "longer raises" true
                  (match H.insert txn h (String.make (H.max_record + 1) 'y') with
                  | _ -> false
                  | exception Invalid_argument _ -> true);
                Alcotest.(check int) "no page linked" 1 (H.page_count (T.read_ctx txn) h);
                ignore (H.insert txn h (String.make H.max_record 'z')));
            Alcotest.(check int) "own page" 2 (H.page_count (P.read pager) h)));
    Alcotest.test_case "update in place keeps rid" `Quick (fun () ->
        with_heap (fun pager h ->
            let rid = T.with_txn pager (fun txn -> H.insert txn h "abcdef") in
            let res = T.with_txn pager (fun txn -> H.update txn h rid "ab") in
            Alcotest.(check bool) "same rid" true (res = `Same);
            Alcotest.(check (option string)) "value" (Some "ab") (H.get (P.read pager) h rid)));
    Alcotest.test_case "update that outgrows the page moves" `Quick (fun () ->
        with_heap (fun pager h ->
            (* fill the first page almost completely *)
            let rid0 = T.with_txn pager (fun txn -> H.insert txn h (String.make 100 'a')) in
            T.with_txn pager (fun txn ->
                for _ = 1 to 9 do ignore (H.insert txn h (String.make 400 'b')) done);
            let res =
              T.with_txn pager (fun txn -> H.update txn h rid0 (String.make 3000 'c'))
            in
            (match res with
            | `Moved rid' ->
              Alcotest.(check (option string)) "moved value" (Some (String.make 3000 'c'))
                (H.get (P.read pager) h rid')
            | `Same ->
              Alcotest.(check (option string)) "in-place value" (Some (String.make 3000 'c'))
                (H.get (P.read pager) h rid0));
            Alcotest.(check int) "row count stable" 10 (H.count (P.read pager) h)));
    Alcotest.test_case "iter_while stops early" `Quick (fun () ->
        with_heap (fun pager h ->
            T.with_txn pager (fun txn ->
                for i = 1 to 20 do ignore (H.insert txn h (string_of_int i)) done);
            let n = ref 0 in
            H.iter_while (P.read pager) h ~f:(fun _ _ ->
                incr n;
                !n < 5);
            Alcotest.(check int) "stopped at 5" 5 !n)) ]

(* Model-based: random inserts/deletes/updates tracked in a hashtable. *)
type op = Ins of string | Del of int | Upd of int * string

let gen_op =
  QCheck.Gen.(
    frequency
      [ (6, map (fun s -> Ins s) (string_size (int_range 1 300)));
        (3, map (fun i -> Del i) (int_bound 200));
        (2, map2 (fun i s -> Upd (i, s)) (int_bound 200) (string_size (int_range 1 300))) ])

let arb_ops =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
    QCheck.Gen.(list_size (int_bound 250) gen_op)

let prop_model =
  QCheck.Test.make ~name:"heap matches model" ~count:60 arb_ops (fun ops ->
      with_heap (fun pager h ->
          let model : (int, string) Hashtbl.t = Hashtbl.create 64 in
          let rids = ref [||] in
          let nth i = if Array.length !rids = 0 then None else Some !rids.(i mod Array.length !rids) in
          let add_rid r = rids := Array.append !rids [| r |] in
          T.with_txn pager (fun txn ->
              List.iter
                (function
                  | Ins s ->
                    let r = H.insert txn h s in
                    add_rid r;
                    Hashtbl.replace model r s
                  | Del i -> (
                    match nth i with
                    | Some r when Hashtbl.mem model r ->
                      ignore (H.delete txn h r);
                      Hashtbl.remove model r
                    | _ -> ())
                  | Upd (i, s) -> (
                    match nth i with
                    | Some r when Hashtbl.mem model r -> (
                      match H.update txn h r s with
                      | `Same -> Hashtbl.replace model r s
                      | `Moved r' ->
                        Hashtbl.remove model r;
                        Hashtbl.replace model r' s;
                        add_rid r')
                    | _ -> ()))
                ops);
          let read = P.read pager in
          let ok = ref (H.count read h = Hashtbl.length model) in
          Hashtbl.iter (fun r s -> if H.get read h r <> Some s then ok := false) model;
          !ok))

(* The handle's free-space map, kept up by every insert, delete and
   update (same-length rewrites skip the note), equals the map a fresh
   chain walk builds. *)
type fop = Put of int | Drop of int | Same_len of int | Resize of int * int

let gen_fop =
  QCheck.Gen.(
    frequency
      [ (4, map (fun n -> Put n) (int_range 1 600));
        (2, map (fun i -> Drop i) (int_bound 400));
        (4, map (fun i -> Same_len i) (int_bound 400));
        (2, map2 (fun i n -> Resize (i, n)) (int_bound 400) (int_range 1 600)) ])

let prop_fsm =
  QCheck.Test.make ~name:"fsm equals a fresh build" ~count:60
    (QCheck.make
       ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
       QCheck.Gen.(list_size (int_range 50 400) gen_fop))
    (fun ops ->
      with_heap (fun pager h ->
          let live : (int, int) Hashtbl.t = Hashtbl.create 64 (* rid -> length *) in
          let rids = ref [||] in
          let pick i =
            if Array.length !rids = 0 then None
            else
              let r = !rids.(i mod Array.length !rids) in
              if Hashtbl.mem live r then Some r else None
          in
          let put txn n =
            let r = H.insert txn h (String.make n 'x') in
            rids := Array.append !rids [| r |];
            Hashtbl.replace live r n
          in
          let rewrite txn r n =
            match H.update txn h r (String.make n 'y') with
            | `Same -> Hashtbl.replace live r n
            | `Moved r' ->
              Hashtbl.remove live r;
              rids := Array.append !rids [| r' |];
              Hashtbl.replace live r' n
          in
          List.iteri
            (fun i op ->
              T.with_txn pager (fun txn ->
                  (* a first insert builds the map *)
                  if i = 0 then put txn 1;
                  match op with
                  | Put n -> put txn n
                  | Drop i -> (
                    match pick i with
                    | Some r ->
                      ignore (H.delete txn h r);
                      Hashtbl.remove live r
                    | None -> ())
                  | Same_len i -> (
                    match pick i with Some r -> rewrite txn r (Hashtbl.find live r) | None -> ())
                  | Resize (i, n) -> (
                    match pick i with Some r -> rewrite txn r n | None -> ())))
            ops;
          let read = P.read pager in
          H.fsm_bindings read h = H.fsm_bindings read (H.open_existing (H.first_page h))))

(* Page fast paths against the spec, on one page: [can_insert] equals
   the spec written out here, [insert] takes the first dead slot (a new
   one when none is dead), and its reported free space is the spec's.
   A second page replays every insert through the reference algorithm
   below, written against the page layout; the two pages stay byte for
   byte equal. *)
module Pg = Storage.Page

let dead_slot q =
  let rec go i = if i >= Pg.nslots q then None else if Pg.live q i then go (i + 1) else Some i in
  go 0

(* [size - content - live bytes], from the directory *)
let spec_dead q =
  let live = ref 0 in
  for i = 0 to Pg.nslots q - 1 do
    if Pg.live q i then live := !live + Pg.slot_len q i
  done;
  Pg.size - Bytes.get_uint16_le q 7 - !live

let spec_can_insert q len =
  Pg.free_space q + spec_dead q >= len + if dead_slot q = None then Pg.slot_bytes else 0

let ref_insert q data =
  let len = String.length data in
  let n = Pg.nslots q in
  let slot, cost = match dead_slot q with Some i -> (i, 0) | None -> (n, Pg.slot_bytes) in
  if len > Pg.size - Pg.header - Pg.slot_bytes then None
  else begin
    if Pg.free_space q < len + cost && Pg.free_space q + spec_dead q >= len + cost then
      Pg.compact q;
    if Pg.free_space q < len + cost then None
    else begin
      if slot = n then Bytes.set_uint16_le q 5 (n + 1);
      let off = Bytes.get_uint16_le q 7 - len in
      Bytes.blit_string data 0 q off len;
      Bytes.set_uint16_le q 7 off;
      Bytes.set_uint16_le q (Pg.header + (Pg.slot_bytes * slot)) off;
      Bytes.set_uint16_le q (Pg.header + (Pg.slot_bytes * slot) + 2) len;
      Some slot
    end
  end

type pop = P_ins of int | P_del of int | P_upd of int * int

let prop_page_spec =
  QCheck.Test.make ~name:"page fast paths equal the spec" ~count:200
    (QCheck.make
       ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
       QCheck.Gen.(
         list_size (int_range 1 300)
           (frequency
              [ (6, map (fun n -> P_ins n) (int_range 0 700));
                (3, map (fun i -> P_del i) (int_bound 200));
                (2, map2 (fun i n -> P_upd (i, n)) (int_bound 200) (int_range 0 700)) ])))
    (fun ops ->
      let p = Pg.create Pg.Heap_page and q = Pg.create Pg.Heap_page in
      (* [r] inserts through one [Pg.fill] kept across inserts, dropped
         after a delete or update as the heap's cursor drops it *)
      let r = Pg.create Pg.Heap_page and kept = ref None in
      let fill_of r =
        match !kept with
        | Some f when Pg.fill_current r f -> f
        | _ ->
          let f = Pg.fill r in
          kept := Some f;
          f
      in
      let fill = ref 0 in
      let data n =
        incr fill;
        String.make n (Char.chr (Char.code 'a' + (!fill mod 26)))
      in
      List.for_all
        (fun op ->
          let agree =
            match op with
            | P_ins n ->
              let d = data n in
              let can = Pg.can_insert p n in
              let want_slot = match dead_slot q with Some i -> i | None -> Pg.nslots q in
              let spec = spec_can_insert q n in
              let f = fill_of r in
              let fits = Pg.fill_fits r f n in
              let kept_slot = Pg.fill_insert r f d in
              let got = Pg.insert_free p d and want = ref_insert q d in
              can = spec
              && fits = spec
              && kept_slot = want
              && (want = None || Pg.fill_free r f = Pg.free_space q + spec_dead q)
              && Option.map fst got = want
              && (want = None || want = Some want_slot)
              && Option.map snd got
                 = Option.map (fun _ -> Pg.free_space q + spec_dead q) want
            | P_del i ->
              let n = max 1 (Pg.nslots p) in
              kept := None;
              ignore (Pg.delete r (i mod n));
              Pg.delete p (i mod n) = Pg.delete q (i mod n)
            | P_upd (i, n) ->
              let i = i mod max 1 (Pg.nslots p) and d = data n in
              kept := None;
              ignore (Pg.update r i d);
              Pg.update p i d = Pg.update q i d
          in
          agree && Bytes.equal p q && Bytes.equal p r)
        ops)

(* --- lockstep against the walking heap --------------------------------

   The heap finds an insert's page through a first-fit index over its
   free-space map; [Heap_model] is the heap as it was before, walking
   the map with [Hashtbl.iter].  The same operations on two pagers must
   give the same rids (or the same failure) and the same page bytes
   after every step.  Row sizes cover TPC-H's [orders] (about 100-140
   bytes) and [lineitem] (about 150-200 bytes) as well as rows big
   enough that each fills most of a page, so the map gets past the 64
   buckets it starts with and collides in them.

   A run of inserts in one transaction, which the heap's cursor serves
   from one page copy and one slot-directory scan while they land on one
   page, runs against the model's inserts: rows of mixed widths, whose
   small rows backfill earlier pages while big ones open new ones,
   optionally with an index entry inserted after every row (its B+tree
   splits then allocate pages between the heap's), and pages recycled
   from a second chain dropped earlier. *)

module M = Heap_model
module B = Storage.Btree
module R = Storage.Record

type lop =
  | L_ins of int
  | L_burst of int (* that many 2 100-byte rows, one page each *)
  | L_del of int
  | L_upd of int * int
  | L_many of int list (* a run of inserts of rows of these sizes *)
  | L_many_ix of int list (* the same, each row's index entry right after it *)
  | L_scratch of int (* a second chain of that many 2 100-byte rows, dropped and committed *)
  | L_commit
  | L_abort

(* A run's widths: mostly small rows, which backfill, and now and
   then a big one, which opens a page. *)
let gen_width =
  QCheck.Gen.(
    frequency
      [ (3, int_range 1 60);
        (3, int_range 90 140);
        (3, int_range 150 200);
        (1, int_range 1300 2600) ])

let gen_run = QCheck.Gen.(list_size (int_range 2 30) gen_width)

let heap_lops =
  QCheck.Gen.
    [ (2, map (fun n -> L_ins n) (int_range 1 60));
      (3, map (fun n -> L_ins n) (int_range 90 140));
      (3, map (fun n -> L_ins n) (int_range 150 200));
      (3, map (fun n -> L_ins n) (int_range 1300 2600));
      (1, map (fun n -> L_burst n) (int_range 10 60));
      (1, map (fun l -> L_many l) gen_run);
      (4, map (fun i -> L_del i) (int_bound 10_000));
      (2, map2 (fun i n -> L_upd (i, n)) (int_bound 10_000) (int_range 1 400));
      (1, return L_commit) ]

(* Two kinds of history, both with aborts.  The heap alone.  And the
   heap sharing its pager with an index and with scratch chains, which
   take the pages an abort gave back: a handle that kept the tail hint
   or map entries of such a page would write into the index's. *)
let gen_lops =
  QCheck.Gen.(
    oneof
      [ list_size (int_range 100 600) (frequency ((1, return L_abort) :: heap_lops));
        list_size (int_range 100 600)
          (frequency
             ((1, return L_abort)
             :: (1, map (fun l -> L_many_ix l) gen_run)
             :: (1, map (fun n -> L_scratch n) (int_range 2 6))
             :: heap_lops)) ])

(* How often a run met the three cases the index must get right: a pid
   leaving the map and coming back with no other add in between (the
   index stays live until the next add), an insert whose first-fit
   estimate is stale, and the map's bucket array growing; and the three
   a run of inserts must: a stale estimate met inside a run, an index
   split before a run's last row, and a run taking a page recycled from
   a dropped chain. *)
type coverage = {
  mutable readds : int;
  mutable stales : int;
  mutable resizes : int;
  mutable run_stales : int;
  mutable mid_splits : int;
  mutable recycled : int;
}

let fsm_keys (h : M.t) = match h.M.fsm with Some f -> Hashtbl.copy f | None -> Hashtbl.create 1

let buckets (h : M.t) =
  match h.M.fsm with Some f -> (Hashtbl.stats f).Hashtbl.num_buckets | None -> 0

let outcome f = match f () with v -> Ok v | exception Invalid_argument m -> Error m

let lop_name = function
  | L_ins n -> Printf.sprintf "insert %d" n
  | L_burst n -> Printf.sprintf "burst %d" n
  | L_del i -> Printf.sprintf "delete %d" i
  | L_upd (i, n) -> Printf.sprintf "update %d to %d" i n
  | L_many l -> Printf.sprintf "run of %d inserts" (List.length l)
  | L_many_ix l -> Printf.sprintf "indexed run of %d inserts" (List.length l)
  | L_scratch n -> Printf.sprintf "scratch chain of %d" n
  | L_commit -> "commit"
  | L_abort -> "abort"

(* Whether the model's next insert of [n] bytes meets a stale first-fit
   estimate. *)
let stale_next (hb : M.t) tb n =
  match hb.M.fsm with
  | Some fsm -> (
    match M.candidate fsm n with
    | Some pid -> (
      match Pg.can_insert (T.read tb pid) n with
      | false -> true
      | true | (exception Invalid_argument _) -> false)
    | None -> false)
  | None -> false

(* An index entry for row [rid]: a leaf holds about 50. *)
let ix_key k rid = [| R.Text (Printf.sprintf "%05d-%09d-%s" k rid (String.make 50 'k')) |]

(* Run [ops] on both heaps; [Error] names the first step that differs. *)
let lockstep (cov : coverage) ops =
  let pa = P.create () and pb = P.create () in
  let ha = T.with_txn pa H.create and hb = T.with_txn pb M.create in
  let ba = T.with_txn pa B.create and bb = T.with_txn pb B.create in
  let ta = ref (T.begin_txn pa) and tb = ref (T.begin_txn pb) in
  let rids = ref [||] in
  let pick i = if Array.length !rids = 0 then None else Some !rids.(i mod Array.length !rids) in
  let commit () =
    T.commit !ta;
    T.commit !tb;
    ta := T.begin_txn pa;
    tb := T.begin_txn pb
  in
  let gone = Hashtbl.create 16 in
  let step k op =
    let data n = String.make n (Char.chr (33 + (k mod 90))) in
    let both fa fb = (outcome (fun () -> fa !ta), outcome (fun () -> fb !tb)) in
    let rid_pair (a, b) =
      (match a with Ok r -> rids := Array.append !rids [| r |] | Error _ -> ());
      (a = b, Printf.sprintf "rid %s / %s"
                (match a with Ok r -> string_of_int r | Error m -> m)
                (match b with Ok r -> string_of_int r | Error m -> m))
    in
    match op with
    | L_ins n ->
      if stale_next hb !tb n then cov.stales <- cov.stales + 1;
      rid_pair (both (fun t -> H.insert t ha (data n)) (fun t -> M.insert t hb (data n)))
    | L_many widths | L_many_ix widths ->
      let indexed = match op with L_many_ix _ -> true | _ -> false in
      let last = List.length widths - 1 in
      let pages0 = P.n_pages pb and chain0 = M.page_count (T.read_ctx !tb) hb in
      let ix0 = B.page_count (T.read_ctx !tb) bb in
      let run t =
        List.map
          (fun n ->
            let rid = H.insert t ha (data n) in
            if indexed then B.insert t ba (ix_key k rid) rid;
            rid)
          widths
      and model t =
        List.mapi
          (fun i n ->
            if stale_next hb t n then cov.run_stales <- cov.run_stales + 1;
            let rid = M.insert t hb (data n) in
            if indexed then B.insert t bb (ix_key k rid) rid;
            (* the index only grows by splitting *)
            if indexed && i = last - 1 && B.page_count (T.read_ctx t) bb > ix0 then
              cov.mid_splits <- cov.mid_splits + 1;
            rid)
          widths
      in
      let a, b = both run model in
      (match a with Ok l -> rids := Array.append !rids (Array.of_list l) | Error _ -> ());
      let grew =
        M.page_count (T.read_ctx !tb) hb - chain0 + B.page_count (T.read_ctx !tb) bb - ix0
      in
      if a = b && P.n_pages pb - pages0 < grew then cov.recycled <- cov.recycled + 1;
      (a = b, "run of inserts")
    | L_scratch n ->
      (* both chains' pages reach the free list at the commit *)
      let scratch create insert drop t =
        let h = create t in
        for _ = 1 to n do
          ignore (insert t h (data 2100))
        done;
        drop t h
      in
      let a, b = both (scratch H.create H.insert H.drop) (scratch M.create M.insert M.drop) in
      commit ();
      (a = b, "scratch chain")
    | L_burst n ->
      let rec go j =
        j = n
        || fst
             (rid_pair
                (both (fun t -> H.insert t ha (data 2100)) (fun t -> M.insert t hb (data 2100))))
           && go (j + 1)
      in
      (go 0, "burst")
    | L_del i -> (
      match pick i with
      | None -> (true, "")
      | Some r ->
        let a, b = both (fun t -> H.delete t ha r) (fun t -> M.delete t hb r) in
        (a = b, "delete"))
    | L_upd (i, n) -> (
      match pick i with
      | None -> (true, "")
      | Some r ->
        let a, b =
          both (fun t -> H.update t ha r (data n)) (fun t -> M.update t hb r (data n))
        in
        let moved = function Ok (`Moved r) -> Ok r | Ok `Same -> Ok (-1) | Error m -> Error m in
        rid_pair (moved a, moved b))
    | L_commit ->
      commit ();
      (true, "")
    | L_abort ->
      T.abort !ta;
      T.abort !tb;
      ta := T.begin_txn pa;
      tb := T.begin_txn pb;
      (true, "")
  in
  let same_pages () =
    let n = max (P.n_pages pa) (P.n_pages pb) in
    let rec go pid =
      pid = n
      || (match outcome (fun () -> T.read !ta pid), outcome (fun () -> T.read !tb pid) with
         | Ok a, Ok b -> Bytes.equal a b
         | a, b -> a = b)
         && go (pid + 1)
    in
    go 0
  in
  let rec run k live = function
    | [] -> Ok ()
    | op :: rest ->
      let keys0 = fsm_keys hb and buckets0 = buckets hb in
      let ok, what = step k op in
      let keys1 = fsm_keys hb in
      let added = Hashtbl.fold (fun p _ acc -> if Hashtbl.mem keys0 p then acc else p :: acc) keys1 [] in
      Hashtbl.iter (fun p _ -> if not (Hashtbl.mem keys1 p) then Hashtbl.replace gone p ()) keys0;
      if live && List.exists (Hashtbl.mem gone) added then cov.readds <- cov.readds + 1;
      if buckets hb > buckets0 && buckets0 > 0 then cov.resizes <- cov.resizes + 1;
      if added <> [] then Hashtbl.reset gone;
      let live = (match op with L_ins _ | L_burst _ | L_upd _ -> true | _ -> live) && added = [] in
      if not ok then Error (Printf.sprintf "step %d: %s" k what)
      else if not (same_pages ()) then
        Error (Printf.sprintf "step %d (%s): page bytes differ" k (lop_name op))
      else run (k + 1) live rest
  in
  run 0 false ops

let no_coverage () =
  { readds = 0; stales = 0; resizes = 0; run_stales = 0; mid_splits = 0; recycled = 0 }

let prop_lockstep =
  QCheck.Test.make ~name:"indexed heap matches the walking heap" ~count:40
    (QCheck.make ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l)) gen_lops)
    (fun ops ->
      match lockstep (no_coverage ()) ops with
      | Ok () -> true
      | Error e -> QCheck.Test.fail_report e)

let lockstep_cases =
  [ Alcotest.test_case "a page leaving the map while the index is dropped comes back as an add"
      `Quick (fun () ->
        (* A and B leave the first page 172 bytes; C opens a second page,
           an add, so the index is dropped; growing B then takes the
           first page out of the map before the next insert rebuilds
           the index; deleting A brings it back, and E fits only there *)
        let ops =
          [ L_ins 2000; L_ins 1900; L_ins 2000; L_upd (1, 2010); L_ins 100; L_del 0; L_ins 2010 ]
        in
        match lockstep (no_coverage ()) ops with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "an edit of the page inserts are filling is seen by the next insert"
      `Quick (fun () ->
        (* the heap's cursor keeps the first page's slot-directory scan
           across inserts: a delete there frees a slot below the ones in
           use, and a shrinking update leaves dead bytes that only a
           compaction makes room from *)
        List.iter
          (fun ops ->
            match lockstep (no_coverage ()) ops with
            | Ok () -> ()
            | Error e -> Alcotest.fail e)
          [ [ L_ins 100; L_ins 100; L_ins 100; L_del 1; L_ins 50 ];
            [ L_ins 2000; L_ins 1900; L_upd (0, 100); L_ins 1000 ] ]);
    Alcotest.test_case "seeded histories cover re-adds, stale estimates and resizes" `Quick
      (fun () ->
        let cov = no_coverage () in
        let rand = Random.State.make [| 23 |] in
        List.iteri
          (fun i ops ->
            match lockstep cov ops with
            | Ok () -> ()
            | Error e -> Alcotest.failf "history %d, %s" i e)
          (QCheck.Gen.generate ~rand ~n:30 gen_lops);
        Alcotest.(check bool) (Printf.sprintf "%d re-adds" cov.readds) true (cov.readds > 0);
        Alcotest.(check bool) (Printf.sprintf "%d stale estimates" cov.stales) true
          (cov.stales > 0);
        Alcotest.(check bool) (Printf.sprintf "%d resizes" cov.resizes) true (cov.resizes > 0);
        Alcotest.(check bool)
          (Printf.sprintf "%d stale estimates inside runs" cov.run_stales)
          true (cov.run_stales > 0);
        Alcotest.(check bool)
          (Printf.sprintf "%d index splits before a run's last row" cov.mid_splits)
          true (cov.mid_splits > 0);
        Alcotest.(check bool)
          (Printf.sprintf "%d runs on recycled pages" cov.recycled)
          true (cov.recycled > 0));
    Alcotest.test_case "a run of inserts places rows and index entries as the model does" `Quick
      (fun () ->
        (* small rows backfill the first pages' holes while the big
           ones open pages, index splits fall between them, and the
           last run lands on pages a dropped chain freed *)
        let ops =
          [ L_many [ 1500; 1500; 1500; 1500; 1500 ];
            L_del 0;
            L_del 2;
            L_commit;
            L_many_ix [ 40; 2000; 100; 2000; 30; 2000; 150; 2000; 60; 2000; 120; 2000; 20; 2000 ];
            L_scratch 8;
            L_many_ix (List.init 80 (fun i -> if i mod 3 = 0 then 1800 else 90)) ]
        in
        let cov = no_coverage () in
        (match lockstep cov ops with Ok () -> () | Error e -> Alcotest.fail e);
        Alcotest.(check bool) "a split mid-run" true (cov.mid_splits > 0);
        Alcotest.(check bool) "a recycled page" true (cov.recycled > 0)) ]

let () =
  Alcotest.run "heap"
    [ ("basic", basic);
      ("lockstep", lockstep_cases);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_model; prop_fsm; prop_page_spec; prop_lockstep ]
      ) ]
