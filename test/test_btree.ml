(* B+tree tests: ordering, duplicates, splits (incl. root), range scans,
   deletion, and a model-based property against a sorted map. *)

module B = Storage.Btree
module T = Storage.Txn
module P = Storage.Pager
module R = Storage.Record

let with_tree f =
  let pager = P.create () in
  let tree = T.with_txn pager (fun txn -> B.create txn) in
  f pager tree

let k i = [| R.Int i |]
let ks s = [| R.Text s |]

let collect_all pager tree =
  let out = ref [] in
  B.iter_all (P.read pager) tree ~f:(fun key rid -> out := (key, rid) :: !out);
  List.rev !out

let basic =
  [ Alcotest.test_case "insert and lookup" `Quick (fun () ->
        with_tree (fun pager t ->
            T.with_txn pager (fun txn -> B.insert txn t (k 5) 50);
            let hits = ref [] in
            B.lookup (P.read pager) t (k 5) ~f:(fun rid -> hits := rid :: !hits);
            Alcotest.(check (list int)) "hit" [ 50 ] !hits));
    Alcotest.test_case "lookup misses" `Quick (fun () ->
        with_tree (fun pager t ->
            T.with_txn pager (fun txn -> B.insert txn t (k 5) 50);
            let hits = ref [] in
            B.lookup (P.read pager) t (k 6) ~f:(fun rid -> hits := rid :: !hits);
            Alcotest.(check (list int)) "none" [] !hits));
    Alcotest.test_case "duplicates keep all rids" `Quick (fun () ->
        with_tree (fun pager t ->
            T.with_txn pager (fun txn ->
                B.insert txn t (k 7) 1;
                B.insert txn t (k 7) 2;
                B.insert txn t (k 7) 3);
            let hits = ref [] in
            B.lookup (P.read pager) t (k 7) ~f:(fun rid -> hits := rid :: !hits);
            Alcotest.(check (list int)) "all" [ 1; 2; 3 ] (List.sort compare !hits)));
    Alcotest.test_case "iteration is sorted after many inserts (splits)" `Quick (fun () ->
        with_tree (fun pager t ->
            let n = 5000 in
            T.with_txn pager (fun txn ->
                List.iter
                  (fun i -> B.insert txn t (k ((i * 7919) mod n)) i)
                  (List.init n (fun i -> i)));
            let keys = List.map (fun (key, _) -> key.(0)) (collect_all pager t) in
            let sorted = List.sort R.compare_value keys in
            Alcotest.(check int) "count" n (List.length keys);
            Alcotest.(check bool) "sorted" true (keys = sorted)));
    Alcotest.test_case "range scan bounds are inclusive" `Quick (fun () ->
        with_tree (fun pager t ->
            T.with_txn pager (fun txn ->
                for i = 1 to 100 do B.insert txn t (k i) i done);
            let out = ref [] in
            B.range (P.read pager) t ~lo:(k 10, min_int) ~hi:(Some (k 13, max_int))
              ~f:(fun rid -> out := rid :: !out; true);
            Alcotest.(check (list int)) "range" [ 10; 11; 12; 13 ] (List.rev !out)));
    Alcotest.test_case "text keys order correctly across splits" `Quick (fun () ->
        with_tree (fun pager t ->
            let words = List.init 2000 (fun i -> Printf.sprintf "w%05d" ((i * 37) mod 2000)) in
            T.with_txn pager (fun txn ->
                List.iteri (fun i w -> B.insert txn t (ks w) i) words);
            let keys = List.map (fun (key, _) -> key.(0)) (collect_all pager t) in
            Alcotest.(check bool) "sorted" true (keys = List.sort R.compare_value keys)));
    Alcotest.test_case "delete removes exactly the entry" `Quick (fun () ->
        with_tree (fun pager t ->
            T.with_txn pager (fun txn ->
                B.insert txn t (k 1) 10;
                B.insert txn t (k 1) 11;
                B.insert txn t (k 2) 20);
            let ok = T.with_txn pager (fun txn -> B.delete txn t (k 1) 10) in
            Alcotest.(check bool) "deleted" true ok;
            let hits = ref [] in
            B.lookup (P.read pager) t (k 1) ~f:(fun rid -> hits := rid :: !hits);
            Alcotest.(check (list int)) "remaining" [ 11 ] !hits;
            Alcotest.(check bool) "delete missing fails" false
              (T.with_txn pager (fun txn -> B.delete txn t (k 1) 10))));
    Alcotest.test_case "multi-column composite keys" `Quick (fun () ->
        with_tree (fun pager t ->
            T.with_txn pager (fun txn ->
                B.insert txn t [| R.Text "a"; R.Int 2 |] 1;
                B.insert txn t [| R.Text "a"; R.Int 1 |] 2;
                B.insert txn t [| R.Text "b"; R.Int 0 |] 3);
            let out = collect_all pager t in
            Alcotest.(check (list int)) "order" [ 2; 1; 3 ] (List.map snd out)));
    Alcotest.test_case "page_count grows with content" `Quick (fun () ->
        with_tree (fun pager t ->
            T.with_txn pager (fun txn ->
                for i = 1 to 3000 do B.insert txn t (k i) i done);
            Alcotest.(check bool) "multiple pages" true (B.page_count (P.read pager) t > 3))) ]

(* Model-based property: inserts and deletes against a reference list. *)
type op = Ins of int * int | Del of int

let arb_ops =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
    QCheck.Gen.(
      list_size (int_bound 400)
        (frequency
           [ (4, map2 (fun k r -> Ins (k, r)) (int_bound 50) (int_bound 1_000_000));
             (1, map (fun i -> Del i) (int_bound 400)) ]))

let prop_model =
  QCheck.Test.make ~name:"btree matches sorted-multiset model" ~count:80 arb_ops (fun ops ->
      with_tree (fun pager t ->
          let model = ref [] in
          T.with_txn pager (fun txn ->
              List.iter
                (function
                  | Ins (key, rid) ->
                    B.insert txn t (k key) rid;
                    model := (key, rid) :: !model
                  | Del i -> (
                    match List.nth_opt !model (if !model = [] then 0 else i mod List.length !model) with
                    | Some (key, rid) ->
                      ignore (B.delete txn t (k key) rid);
                      model := List.filter (fun e -> e <> (key, rid)) !model
                    | None -> ()))
                ops);
          let expected = List.sort compare !model in
          let actual =
            List.map
              (fun (key, rid) ->
                match key.(0) with R.Int i -> (i, rid) | _ -> assert false)
              (collect_all pager t)
            |> List.sort compare
          in
          expected = actual))

(* Searches compare keys on their encoded bytes: with keys of every
   storage class, one or two columns, and enough entries to split
   (long texts), iteration order and every lookup must match a model
   ordered by [Record.compare_row]. *)
let gen_key =
  let open QCheck.Gen in
  let value =
    frequency
      [ (1, return R.Null);
        (3, map (fun i -> R.Int i) (int_range (-20) 20));
        (2, map (fun i -> R.Real (float_of_int i /. 4.)) (int_range (-80) 80));
        (3, map (fun s -> R.Text s) (string_size ~gen:(char_range 'a' 'c') (int_bound 30))) ]
  in
  map Array.of_list (list_size (int_range 1 2) value)

let arb_keys =
  QCheck.make
    ~print:(fun l -> Printf.sprintf "<%d keys>" (List.length l))
    QCheck.Gen.(list_size (int_range 50 400) gen_key)

let prop_mixed_keys =
  QCheck.Test.make ~name:"mixed-class keys: order and lookups match the model" ~count:40
    arb_keys (fun keys ->
      with_tree (fun pager t ->
          let entries = List.mapi (fun rid key -> (key, rid)) keys in
          T.with_txn pager (fun txn -> List.iter (fun (key, rid) -> B.insert txn t key rid) entries);
          let cmp (ka, ra) (kb, rb) =
            let c = R.compare_row ka kb in
            if c <> 0 then c else compare ra rb
          in
          let expected = List.sort cmp entries in
          let ordered =
            List.length expected = List.length (collect_all pager t)
            && List.for_all2 (fun a b -> cmp a b = 0) expected (collect_all pager t)
          in
          let lookups_ok =
            List.for_all
              (fun (key, _) ->
                let hits = ref [] in
                B.lookup (P.read pager) t key ~f:(fun rid -> hits := rid :: !hits);
                let want =
                  List.filter_map
                    (fun (k, rid) -> if R.compare_row k key = 0 then Some rid else None)
                    expected
                in
                List.rev !hits = want)
              entries
          in
          ordered && lookups_ok))

(* Bulk build ([B.build]) against per-row insertion: the same entries
   in the same order, the same lookups and range scans; a built tree
   then takes further inserts and deletes like any other. *)
let with_built entries f =
  let sorted = Array.of_list entries in
  Array.sort B.compare_composite sorted;
  with_tree (fun pager t ->
      T.with_txn pager (fun txn -> B.build txn t sorted);
      f pager t)

(* Entries as comparable data: encoded keys, so [1] and [1.0] or [-0.0]
   and [0.0] count as different values. *)
let encoded l = List.map (fun (key, rid) -> (R.encode_row key, rid)) l

let sorted_model entries = List.sort B.compare_composite entries

let depth pager t =
  let rec go pid d =
    let p = P.read pager pid in
    match Storage.Page.kind p with
    | Storage.Page.Btree_interior -> go (Storage.Page.aux p) (d + 1)
    | _ -> d
  in
  go (B.root t) 1

let lookup_rids pager t key =
  let hits = ref [] in
  B.lookup (P.read pager) t key ~f:(fun rid -> hits := rid :: !hits);
  List.rev !hits

let range_rids pager t ~lo ~hi =
  let out = ref [] in
  B.range (P.read pager) t ~lo ~hi ~f:(fun rid -> out := rid :: !out; true);
  List.rev !out

(* Built and inserted trees over [entries] (any order, rids distinct)
   agree with each other and with the sorted model. *)
let built_matches_inserted entries =
  let model = sorted_model entries in
  with_built entries (fun pb tb ->
      with_tree (fun pi ti ->
          T.with_txn pi (fun txn -> List.iter (fun (key, rid) -> B.insert txn ti key rid) entries);
          let same_all =
            encoded (collect_all pb tb) = encoded model
            && encoded (collect_all pi ti) = encoded model
          in
          let probes = [| R.Int 99 |] :: [| R.Text "zz"; R.Null |] :: List.map fst entries in
          let same_lookups =
            List.for_all (fun key -> lookup_rids pb tb key = lookup_rids pi ti key) probes
          in
          let arr = Array.of_list model in
          let n = Array.length arr in
          let bounds =
            if n = 0 then [ (([||], min_int), None) ]
            else
              List.concat_map
                (fun (i, j) ->
                  let ki, ri = arr.(i * (n - 1) / 4) and kj, rj = arr.(j * (n - 1) / 4) in
                  [ ((ki, min_int), Some (kj, max_int)); ((ki, ri), Some (kj, rj)); ((ki, ri), None) ])
                [ (0, 4); (1, 2); (2, 3); (3, 3) ]
          in
          let same_ranges =
            List.for_all
              (fun (lo, hi) -> range_rids pb tb ~lo ~hi = range_rids pi ti ~lo ~hi)
              bounds
          in
          same_all && same_lookups && same_ranges))

(* Values with duplicates, NULL, TEXT, [1] vs [1.0] and [-0.0] vs
   [0.0]; [long] keys carry texts of a few hundred bytes, so a few
   hundred entries make a tree three levels deep. *)
let gen_build_key ~long =
  let open QCheck.Gen in
  let value =
    frequency
      [ (1, return R.Null);
        (2, map (fun i -> R.Int i) (int_range (-3) 3));
        (2, oneofl [ R.Real 1.0; R.Real (-0.0); R.Real 0.0; R.Real 2.5 ]);
        (3, map (fun s -> R.Text s) (string_size ~gen:(char_range 'a' 'c') (int_bound 4))) ]
  in
  let text_long = map (fun n -> R.Text (String.make n 'x')) (int_range 150 400) in
  map Array.of_list
    (list_size (int_range 1 2) (if long then frequency [ (1, value); (2, text_long) ] else value))

let gen_entries =
  let open QCheck.Gen in
  bool >>= fun long ->
  frequency [ (1, return 0); (1, return 1); (4, int_range 2 700) ] >>= fun n ->
  map (List.mapi (fun i key -> (key, (i * 7919) mod 100_003))) (list_repeat n (gen_build_key ~long))

let arb_entries =
  QCheck.make ~print:(fun l -> Printf.sprintf "<%d entries>" (List.length l)) gen_entries

let build_tests =
  let ints n = List.init n (fun i -> ([| R.Int (i / 3) |], 1000 - i)) in
  let long n = List.init n (fun i -> ([| R.Text (Printf.sprintf "%03d%s" (i mod 97) (String.make 300 'k')) |], i)) in
  [ Alcotest.test_case "empty and single-entry builds" `Quick (fun () ->
        Alcotest.(check bool) "empty" true (built_matches_inserted []);
        Alcotest.(check bool) "one" true (built_matches_inserted (ints 1));
        with_built [] (fun pager t ->
            Alcotest.(check int) "empty root leaf" 1 (B.page_count (P.read pager) t)));
    Alcotest.test_case "exactly one full leaf, then two leaves" `Quick (fun () ->
        (* an (INTEGER key, rid) entry is 20 bytes plus a 4-byte slot:
           170 of them fill the 4 080 bytes after the header exactly *)
        with_built (ints 170) (fun pager t ->
            let root = P.read pager (B.root t) in
            Alcotest.(check int) "root is the one leaf" 1 (B.page_count (P.read pager) t);
            Alcotest.(check int) "no byte left" 0 (Storage.Page.free_space root));
        with_built (ints 171) (fun pager t ->
            Alcotest.(check int) "two leaves under the root" 3 (B.page_count (P.read pager) t);
            Alcotest.(check int) "two levels" 2 (depth pager t));
        Alcotest.(check bool) "170 agree" true (built_matches_inserted (ints 170));
        Alcotest.(check bool) "171 agree" true (built_matches_inserted (ints 171)));
    Alcotest.test_case "two- and three-level builds agree with inserts" `Quick (fun () ->
        with_built (ints 5000) (fun pager t ->
            Alcotest.(check int) "two levels" 2 (depth pager t));
        with_built (long 600) (fun pager t ->
            Alcotest.(check int) "three levels" 3 (depth pager t));
        Alcotest.(check bool) "5000 ints agree" true (built_matches_inserted (ints 5000));
        Alcotest.(check bool) "600 long agree" true (built_matches_inserted (long 600)));
    Alcotest.test_case "leaves are packed" `Quick (fun () ->
        with_built (ints 5000) (fun pb tb ->
            with_tree (fun pi ti ->
                T.with_txn pi (fun txn -> List.iter (fun (k, r) -> B.insert txn ti k r) (ints 5000));
                Alcotest.(check bool) "fewer pages than inserted" true
                  (B.page_count (P.read pb) tb < B.page_count (P.read pi) ti))));
    Alcotest.test_case "build refuses unsorted entries and a non-empty tree" `Quick (fun () ->
        let raises f = try f (); false with Invalid_argument _ -> true in
        with_tree (fun pager t ->
            Alcotest.(check bool) "unsorted" true
              (raises (fun () ->
                   T.with_txn pager (fun txn -> B.build txn t [| (k 2, 1); (k 1, 2) |])));
            Alcotest.(check bool) "duplicate composite" true
              (raises (fun () ->
                   T.with_txn pager (fun txn -> B.build txn t [| (k 1, 1); (k 1, 1) |])));
            T.with_txn pager (fun txn -> B.insert txn t (k 1) 1);
            Alcotest.(check bool) "non-empty" true
              (raises (fun () -> T.with_txn pager (fun txn -> B.build txn t [| (k 2, 2) |])))));
    Alcotest.test_case "integrity_check is ok on a bulk-built index after DML" `Quick (fun () ->
        let module E = Sqldb.Engine in
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE t (a, b)");
        let vals = [| "NULL"; "1"; "1.0"; "-0.0"; "0.0"; "'x'"; "'" ^ String.make 200 'y' ^ "'" |] in
        for i = 0 to 599 do
          ignore
            (E.exec db
               (Printf.sprintf "INSERT INTO t VALUES (%s, %s)" vals.(i mod 7) vals.(i * 5 mod 7)))
        done;
        ignore (E.exec db "CREATE INDEX iab ON t (a, b)");
        let ok () = (E.exec db "PRAGMA integrity_check").E.rows = [ [| R.Text "ok" |] ] in
        Alcotest.(check bool) "ok after build" true (ok ());
        ignore (E.exec db "DELETE FROM t WHERE a = 1");
        ignore (E.exec db "UPDATE t SET b = 'z' WHERE b IS NULL");
        for i = 0 to 199 do
          ignore (E.exec db (Printf.sprintf "INSERT INTO t VALUES (%s, %d)" vals.(i mod 7) i))
        done;
        Alcotest.(check bool) "ok after DML" true (ok ())) ]

let prop_build =
  QCheck.Test.make ~name:"built tree = inserted tree (iter_all, lookup, range)" ~count:60
    arb_entries built_matches_inserted

type bop = B_ins of R.row | B_del of int

let prop_build_then_edit =
  QCheck.Test.make ~name:"built tree takes inserts and deletes like the model" ~count:40
    (QCheck.pair arb_entries
       (QCheck.make
          ~print:(fun l -> Printf.sprintf "<%d ops>" (List.length l))
          QCheck.Gen.(
            list_size (int_bound 300)
              (frequency
                 [ (3, map (fun key -> B_ins key) (gen_build_key ~long:false));
                   (2, map (fun i -> B_del i) (int_bound 10_000)) ]))))
    (fun (entries, ops) ->
      with_built entries (fun pager t ->
          let model = ref entries and next_rid = ref 200_000 in
          T.with_txn pager (fun txn ->
              List.iter
                (function
                  | B_ins key ->
                    incr next_rid;
                    B.insert txn t key !next_rid;
                    model := (key, !next_rid) :: !model
                  | B_del i -> (
                    match !model with
                    | [] -> ()
                    | l ->
                      let key, rid = List.nth l (i mod List.length l) in
                      ignore (B.delete txn t key rid);
                      model := List.filter (fun (_, r) -> r <> rid) l))
                ops);
          let sorted = sorted_model !model in
          encoded (collect_all pager t) = encoded sorted
          && List.for_all
               (fun (key, _) ->
                 lookup_rids pager t key
                 = List.filter_map
                     (fun (k, rid) -> if R.compare_row k key = 0 then Some rid else None)
                     sorted)
               !model))

(* Keys of up to [B.max_key] encoded bytes (a one-TEXT key has 5 bytes
   of header and tag), short and long mixed, inserted in any order, or
   into a built tree: every split finds two halves that fit. *)
let gen_wide_keys =
  let open QCheck.Gen in
  let most = B.max_key - 5 in
  let len = frequency [ (2, int_range 1 60); (2, int_range (most / 4) (most / 2)); (3, int_range (most / 2) most) ] in
  let key = map2 (fun c n -> [| R.Text (String.init n (fun i -> if i = 0 then c else 'x')) |]) (char_range 'a' 'z') len in
  map (List.mapi (fun rid k -> (k, rid))) (list_size (int_range 1 120) key)

let prop_wide_keys =
  QCheck.Test.make ~name:"keys up to max_key always fit (insert and build)" ~count:60
    (QCheck.make ~print:(fun l -> Printf.sprintf "<%d keys>" (List.length l)) gen_wide_keys)
    (fun entries ->
      let half = List.filteri (fun i _ -> i mod 2 = 0) entries in
      let rest = List.filteri (fun i _ -> i mod 2 = 1) entries in
      let fits (pager, t) more =
        T.with_txn pager (fun txn -> List.iter (fun (key, rid) -> B.insert txn t key rid) more);
        encoded (collect_all pager t) = encoded (sorted_model entries)
      in
      with_tree (fun pager t -> fits (pager, t) entries)
      && with_built half (fun pager t -> fits (pager, t) rest))

let wide_tests =
  [ Alcotest.test_case "a key of max_key bytes that crosses a full leaf's midpoint goes right"
      `Quick (fun () ->
        (* leaf entries cost 1 050, 1 050 and 500 bytes; the new one 2 031
           crosses the midpoint of the 4 631, and the left side with it
           would be 4 131 of the 4 080 bytes a node has *)
        let text c n = [| R.Text (String.init n (fun i -> if i = 0 then c else 'x')) |] in
        let keys =
          [ (text 'a' 1032, 1); (text 'b' 1032, 2); (text 'd' 482, 3); (text 'c' (B.max_key - 5), 4) ]
        in
        Alcotest.(check int) "the key is max_key bytes" B.max_key (R.row_size (fst (List.nth keys 3)));
        with_tree (fun pager t ->
            T.with_txn pager (fun txn -> List.iter (fun (key, rid) -> B.insert txn t key rid) keys);
            Alcotest.(check int) "two levels" 2 (depth pager t);
            Alcotest.(check (list int)) "key order" [ 1; 2; 4; 3 ] (List.map snd (collect_all pager t));
            List.iter
              (fun (key, rid) -> Alcotest.(check (list int)) "lookup" [ rid ] (lookup_rids pager t key))
              keys)) ]

let () =
  Alcotest.run "btree"
    [ ("basic", basic);
      ("build", build_tests);
      ("wide", wide_tests);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_model; prop_mixed_keys; prop_build; prop_build_then_edit; prop_wide_keys ] ) ]
