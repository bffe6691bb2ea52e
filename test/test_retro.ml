(* Retro snapshot-system tests: COW archiving, SPT construction, page
   sharing between snapshots and with the current state, the snapshot
   page cache, recycled pages, and the central correctness property —
   reading AS OF any snapshot reproduces the exact historical state. *)

module T = Storage.Txn
module P = Storage.Pager
module Pg = Storage.Page
module H = Storage.Heap
module S = Storage.Stats
module Spt = Retro.Spt

let setup () =
  let pager = P.create () in
  let retro = Retro.attach pager in
  let heap = T.with_txn pager (fun txn -> H.create txn) in
  (pager, retro, heap)

let heap_contents read heap =
  let out = ref [] in
  H.iter read heap ~f:(fun _ d -> out := d :: !out);
  List.sort compare !out

let snapshot_contents retro heap sid =
  let spt = Retro.build_spt retro sid in
  heap_contents (Retro.read_ctx retro spt) heap

let insert pager heap rows =
  T.with_txn pager (fun txn -> List.iter (fun r -> ignore (H.insert txn heap r)) rows)

let basic =
  [ Alcotest.test_case "snapshot preserves pre-update state" `Quick (fun () ->
        let pager, retro, heap = setup () in
        insert pager heap [ "a"; "b" ];
        let s1 = Retro.declare retro in
        insert pager heap [ "c" ];
        Alcotest.(check (list string)) "snapshot" [ "a"; "b" ] (snapshot_contents retro heap s1);
        Alcotest.(check (list string)) "current" [ "a"; "b"; "c" ]
          (heap_contents (P.read pager) heap));
    Alcotest.test_case "snapshot reflects the declaring state" `Quick (fun () ->
        let pager, retro, heap = setup () in
        insert pager heap [ "a" ];
        let s1 = Retro.declare retro in
        let s2 = Retro.declare retro in
        Alcotest.(check (list string)) "s1" [ "a" ] (snapshot_contents retro heap s1);
        Alcotest.(check (list string)) "s2 same" [ "a" ] (snapshot_contents retro heap s2));
    Alcotest.test_case "multiple snapshots see distinct histories" `Quick (fun () ->
        let pager, retro, heap = setup () in
        insert pager heap [ "v1" ];
        let s1 = Retro.declare retro in
        insert pager heap [ "v2" ];
        let s2 = Retro.declare retro in
        insert pager heap [ "v3" ];
        let s3 = Retro.declare retro in
        insert pager heap [ "v4" ];
        Alcotest.(check (list string)) "s1" [ "v1" ] (snapshot_contents retro heap s1);
        Alcotest.(check (list string)) "s2" [ "v1"; "v2" ] (snapshot_contents retro heap s2);
        Alcotest.(check (list string)) "s3" [ "v1"; "v2"; "v3" ] (snapshot_contents retro heap s3));
    Alcotest.test_case "pre-state archived once per epoch (sharing)" `Quick (fun () ->
        let pager, retro, heap = setup () in
        insert pager heap [ "a" ];
        ignore (Retro.declare retro);
        let cow0 = Obs.Scope.get S.c_cow_archived in
        (* two updates to the same page within one epoch: one archive *)
        insert pager heap [ "b" ];
        insert pager heap [ "c" ];
        Alcotest.(check int) "one pre-state" 1 (Obs.Scope.get S.c_cow_archived - cow0));
    Alcotest.test_case "consecutive snapshots share unmodified pre-states" `Quick (fun () ->
        let pager, retro, heap = setup () in
        insert pager heap [ "a" ];
        let s1 = Retro.declare retro in
        let s2 = Retro.declare retro in
        (* no update between s1 and s2 *)
        insert pager heap [ "b" ];
        let spt1 = Retro.build_spt retro s1 and spt2 = Retro.build_spt retro s2 in
        (* the archived page for the heap page must be the same pagelog
           offset in both SPTs *)
        let off1 = ref None and off2 = ref None in
        Spt.iter spt1 ~f:(fun pid off -> off1 := Some (pid, off));
        Spt.iter spt2 ~f:(fun pid off -> off2 := Some (pid, off));
        ignore s2;
        Alcotest.(check bool) "shared offset" true (!off1 = !off2 && !off1 <> None));
    Alcotest.test_case "unmodified pages served from the database" `Quick (fun () ->
        let pager, retro, heap = setup () in
        insert pager heap [ "a" ];
        let s1 = Retro.declare retro in
        (* nothing modified since declaration: snapshot read must not
           touch the pagelog *)
        let pl0 = Obs.Scope.get S.c_pagelog_reads and db0 = Obs.Scope.get S.c_db_page_reads in
        ignore (snapshot_contents retro heap s1);
        Alcotest.(check int) "no pagelog reads" 0 (Obs.Scope.get S.c_pagelog_reads - pl0);
        Alcotest.(check bool) "db reads happened" true (Obs.Scope.get S.c_db_page_reads > db0));
    Alcotest.test_case "snapshot cache avoids repeated pagelog reads" `Quick (fun () ->
        let pager, retro, heap = setup () in
        insert pager heap [ "a" ];
        let s1 = Retro.declare retro in
        insert pager heap [ "b" ];
        Retro.clear_cache retro;
        let pagelog_reads () =
          let pl0 = Obs.Scope.get S.c_pagelog_reads in
          ignore (snapshot_contents retro heap s1);
          Obs.Scope.get S.c_pagelog_reads - pl0
        in
        Alcotest.(check bool) "first read hits pagelog" true (pagelog_reads () > 0);
        Alcotest.(check int) "second read cached" 0 (pagelog_reads ()));
    Alcotest.test_case "pages created after declaration are excluded" `Quick (fun () ->
        let pager, retro, heap = setup () in
        insert pager heap [ "a" ];
        let s1 = Retro.declare retro in
        (* grow the heap with big rows so new pages are allocated *)
        insert pager heap (List.init 30 (fun i -> String.make 1000 (Char.chr (65 + (i mod 26)))));
        Alcotest.(check (list string)) "old view intact" [ "a" ]
          (snapshot_contents retro heap s1));
    Alcotest.test_case "snapshot of recycled page preserves old content" `Quick (fun () ->
        let pager, retro, _heap = setup () in
        (* dedicated page outside the heap *)
        let pid = T.with_txn pager (fun txn -> T.alloc txn Pg.Heap_page) in
        T.with_txn pager (fun txn -> ignore (Pg.insert (T.write txn pid) "precious"));
        let s1 = Retro.declare retro in
        T.with_txn pager (fun txn -> T.free txn pid);
        let pid2 = T.with_txn pager (fun txn -> T.alloc txn Pg.Heap_page) in
        Alcotest.(check int) "recycled" pid pid2;
        T.with_txn pager (fun txn -> ignore (Pg.insert (T.write txn pid2) "new tenant"));
        let spt = Retro.build_spt retro s1 in
        let page = Retro.read_page retro spt pid in
        Alcotest.(check (option string)) "old content" (Some "precious") (Pg.get page 0));
    Alcotest.test_case "spt scan length is bounded by maplog suffix" `Quick (fun () ->
        let pager, retro, heap = setup () in
        insert pager heap [ "a" ];
        let _s1 = Retro.declare retro in
        insert pager heap [ "b" ];
        let s2 = Retro.declare retro in
        insert pager heap [ "c" ];
        let spt2 = Retro.build_spt retro s2 in
        Alcotest.(check bool) "suffix only" true
          (Spt.scan_len spt2 <= Retro.maplog_length retro));
    Alcotest.test_case "unknown snapshot id rejected" `Quick (fun () ->
        let _pager, retro, _heap = setup () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (Retro.build_spt retro 1);
             false
           with Invalid_argument _ -> true)) ]

(* --- the central property ----------------------------------------------- *)

(* Random history: each round does random inserts/deletes, then maybe
   declares a snapshot recording the expected contents.  At the end,
   every snapshot must read back exactly its recorded contents, in any
   access order, with and without cache. *)
let prop_history =
  QCheck.Test.make ~name:"AS OF reads reproduce recorded history" ~count:40
    QCheck.(pair (int_range 1 20) (int_bound 1000))
    (fun (rounds, seed) ->
      let rng = Random.State.make [| seed |] in
      let pager, retro, heap = setup () in
      let live = ref [] in
      let counter = ref 0 in
      let snapshots = ref [] in
      for _ = 1 to rounds do
        T.with_txn pager (fun txn ->
            let n_ins = Random.State.int rng 20 in
            for _ = 1 to n_ins do
              incr counter;
              let data = Printf.sprintf "row-%06d-%s" !counter (String.make (Random.State.int rng 200) 'x') in
              let rid = H.insert txn heap data in
              live := (rid, data) :: !live
            done;
            let n_del = Random.State.int rng (1 + (List.length !live / 3)) in
            for _ = 1 to n_del do
              match !live with
              | [] -> ()
              | l ->
                let i = Random.State.int rng (List.length l) in
                let rid, _ = List.nth l i in
                ignore (H.delete txn heap rid);
                live := List.filteri (fun j _ -> j <> i) l
            done);
        if Random.State.bool rng then begin
          let sid = Retro.declare retro in
          snapshots := (sid, List.sort compare (List.map snd !live)) :: !snapshots
        end
      done;
      (* verify newest-to-oldest and oldest-to-newest, cold and warm *)
      let verify () =
        List.for_all
          (fun (sid, expected) -> snapshot_contents retro heap sid = expected)
          !snapshots
      in
      Retro.clear_cache retro;
      let ok1 = verify () in
      let ok2 = List.for_all (fun (sid, e) -> snapshot_contents retro heap sid = e) (List.rev !snapshots) in
      ok1 && ok2)

(* --- SPT model ---------------------------------------------------------- *)

module M = Retro.Maplog

(* The reference SPT: for every page the snapshot had, the first Maplog
   entry at or after its boundary, by a plain walk over [M.entry]. *)
let naive_spt (ml : M.t) sid =
  let b = M.boundary ml sid in
  let first = Array.make b.M.db_pages None in
  for i = M.length ml - 1 downto b.M.pos do
    let e = M.entry ml i in
    if e.M.pid < b.M.db_pages then first.(e.M.pid) <- Some e.M.pl_off
  done;
  first

(* Every live snapshot's SPT, with Skippy on and off, agrees with the
   naive fold page by page; [cardinal] counts the mapped pages and a
   linear scan visits exactly the suffix. *)
let spt_matches_model retro =
  let ml = retro.Retro.maplog in
  let check_one sid =
    let want = naive_spt ml sid in
    let linear_len = M.length ml - (M.boundary ml sid).M.pos in
    List.for_all
      (fun skippy ->
        Retro.set_skippy retro skippy;
        let spt = Retro.build_spt retro sid in
        Spt.db_pages spt = Array.length want
        && Array.for_all Fun.id (Array.mapi (fun pid w -> Spt.find spt pid = w) want)
        && Spt.find spt (Array.length want) = None
        && Spt.cardinal spt = Array.fold_left (fun n w -> if w = None then n else n + 1) 0 want
        && if skippy then Spt.scan_len spt <= linear_len else Spt.scan_len spt = linear_len)
      [ true; false ]
  in
  let ok = ref true in
  for sid = M.first_live ml to M.snapshot_count ml do
    ok := !ok && check_one sid
  done;
  Retro.set_skippy retro true;
  !ok

(* Random page-level histories: each round rewrites a random subset of
   the pages (archiving their pre-states once per epoch), sometimes
   allocates more, and declares a snapshot.  Long enough histories cross
   Skippy's 1024-entry segments.  The model must hold before and after a
   VACUUM SNAPSHOTS compaction of a random prefix. *)
let prop_spt_model =
  QCheck.Test.make ~name:"SPT equals the naive Maplog fold" ~count:25
    QCheck.(triple (int_range 1 40) (int_range 1 150) (int_bound 10_000))
    (fun (rounds, pages, seed) ->
      let rng = Random.State.make [| seed |] in
      let pager, retro, _heap = setup () in
      let pids = ref [] in
      let grow n =
        T.with_txn pager (fun txn ->
            for _ = 1 to n do
              pids := T.alloc txn Pg.Heap_page :: !pids
            done)
      in
      grow pages;
      for _ = 1 to rounds do
        let all = Array.of_list !pids in
        T.with_txn pager (fun txn ->
            for _ = 0 to Random.State.int rng (Array.length all) do
              let pid = all.(Random.State.int rng (Array.length all)) in
              Bytes.set (T.write txn pid) (Pg.size - 1) (Char.chr (Random.State.int rng 256))
            done);
        if Random.State.int rng 4 = 0 then grow (1 + Random.State.int rng 20);
        ignore (Retro.declare retro)
      done;
      let before = spt_matches_model retro in
      let keep_from = 1 + Random.State.int rng rounds in
      ignore (P.with_write_lock pager (fun () -> Retro.vacuum retro ~keep_from));
      before && M.first_live retro.Retro.maplog = keep_from && spt_matches_model retro)

let () =
  Alcotest.run "retro"
    [ ("basic", basic);
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_history; QCheck_alcotest.to_alcotest prop_spt_model ] ) ]
