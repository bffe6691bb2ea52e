(* System-catalog tests: persistence on pages, round-trips, lookups,
   removal, and historical catalog reads through a snapshot context. *)

module C = Sqldb.Catalog
module T = Storage.Txn
module P = Storage.Pager

let with_db f =
  let pager = P.create () in
  T.with_txn pager (fun txn -> C.bootstrap txn);
  f pager

let mk_table ?(cols = [| ("a", "INTEGER"); ("b", "TEXT") |]) name heap =
  { C.tname = name; tcols = cols; theap = heap }

let tests =
  [ Alcotest.test_case "bootstrap occupies page zero" `Quick (fun () ->
        with_db (fun pager ->
            Alcotest.(check bool) "page 0 allocated" true (P.peek_committed pager 0 <> None)));
    Alcotest.test_case "table round-trip" `Quick (fun () ->
        with_db (fun pager ->
            T.with_txn pager (fun txn -> C.add_table txn (mk_table "users" 7));
            let cat = C.load (P.read pager) in
            match C.find_table cat "users" with
            | Some t ->
              Alcotest.(check string) "name" "users" t.C.tname;
              Alcotest.(check int) "heap" 7 t.C.theap;
              Alcotest.(check int) "cols" 2 (Array.length t.C.tcols);
              Alcotest.(check (pair string string)) "col0" ("a", "INTEGER") t.C.tcols.(0)
            | None -> Alcotest.fail "table not found"));
    Alcotest.test_case "lookups are case-insensitive" `Quick (fun () ->
        with_db (fun pager ->
            T.with_txn pager (fun txn -> C.add_table txn (mk_table "MiXeD" 3));
            let cat = C.load (P.read pager) in
            Alcotest.(check bool) "lower" true (C.find_table cat "mixed" <> None);
            Alcotest.(check bool) "upper" true (C.find_table cat "MIXED" <> None)));
    Alcotest.test_case "index round-trip and per-table listing" `Quick (fun () ->
        with_db (fun pager ->
            T.with_txn pager (fun txn ->
                C.add_table txn (mk_table "t1" 3);
                C.add_table txn (mk_table "t2" 4);
                C.add_index txn { C.iname = "i1"; itable = "t1"; icols = [ "a" ]; iroot = 9 };
                C.add_index txn { C.iname = "i2"; itable = "t1"; icols = [ "a"; "b" ]; iroot = 10 };
                C.add_index txn { C.iname = "i3"; itable = "t2"; icols = [ "b" ]; iroot = 11 });
            let cat = C.load (P.read pager) in
            (match C.find_index cat "i2" with
            | Some i ->
              Alcotest.(check (list string)) "cols" [ "a"; "b" ] i.C.icols;
              Alcotest.(check int) "root" 10 i.C.iroot
            | None -> Alcotest.fail "i2 missing");
            Alcotest.(check int) "t1 has two indexes" 2
              (List.length (C.indexes_of_table cat "t1"));
            Alcotest.(check int) "t2 has one" 1 (List.length (C.indexes_of_table cat "t2"))));
    Alcotest.test_case "removal deletes the catalog row" `Quick (fun () ->
        with_db (fun pager ->
            T.with_txn pager (fun txn ->
                C.add_table txn (mk_table "gone" 3);
                C.add_index txn { C.iname = "gi"; itable = "gone"; icols = [ "a" ]; iroot = 9 });
            let cat = C.load (P.read pager) in
            T.with_txn pager (fun txn ->
                Alcotest.(check bool) "table removed" true (C.remove_table cat txn "gone");
                Alcotest.(check bool) "index removed" true (C.remove_index cat txn "gi"));
            let cat = C.load (P.read pager) in
            Alcotest.(check bool) "table gone" true (C.find_table cat "gone" = None);
            Alcotest.(check bool) "index gone" true (C.find_index cat "gi" = None);
            T.with_txn pager (fun txn ->
                Alcotest.(check bool) "double remove is false" false
                  (C.remove_table cat txn "gone"))));
    Alcotest.test_case "table_names lists everything" `Quick (fun () ->
        with_db (fun pager ->
            T.with_txn pager (fun txn ->
                List.iter
                  (fun n -> C.add_table txn (mk_table n 3))
                  [ "alpha"; "beta"; "gamma" ]);
            let cat = C.load (P.read pager) in
            Alcotest.(check (list string)) "names" [ "alpha"; "beta"; "gamma" ]
              (List.sort compare (C.table_names cat))));
    Alcotest.test_case "many tables spill across catalog pages" `Quick (fun () ->
        with_db (fun pager ->
            T.with_txn pager (fun txn ->
                for i = 1 to 300 do
                  C.add_table txn
                    (mk_table (Printf.sprintf "table_with_a_rather_long_name_%03d" i) (i + 1))
                done);
            let cat = C.load (P.read pager) in
            Alcotest.(check int) "all present" 300 (List.length (C.table_names cat))));
    Alcotest.test_case "historical catalog via snapshot read" `Quick (fun () ->
        let pager = P.create () in
        let retro = Retro.attach pager in
        T.with_txn pager (fun txn -> C.bootstrap txn);
        T.with_txn pager (fun txn -> C.add_table txn (mk_table "early" 3));
        let s1 = Retro.declare retro in
        T.with_txn pager (fun txn -> C.add_table txn (mk_table "late" 4));
        let spt = Retro.build_spt retro s1 in
        let cat_then = C.load (Retro.read_ctx retro spt) in
        Alcotest.(check bool) "early visible" true (C.find_table cat_then "early" <> None);
        Alcotest.(check bool) "late invisible" true (C.find_table cat_then "late" = None);
        let cat_now = C.load (P.read pager) in
        Alcotest.(check bool) "late visible now" true (C.find_table cat_now "late" <> None)) ]

let () = Alcotest.run "catalog" [ ("catalog", tests) ]
