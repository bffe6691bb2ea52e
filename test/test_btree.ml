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

let () =
  Alcotest.run "btree"
    [ ("basic", basic);
      ( "properties",
        [ QCheck_alcotest.to_alcotest prop_model; QCheck_alcotest.to_alcotest prop_mixed_keys ] ) ]
