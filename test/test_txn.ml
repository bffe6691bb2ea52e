(* Transaction tests: isolation of uncommitted writes, abort semantics,
   before-images delivered to the commit hook, page allocation and
   recycling. *)

module T = Storage.Txn
module P = Storage.Pager
module Pg = Storage.Page

let tests =
  [ Alcotest.test_case "committed write is visible" `Quick (fun () ->
        let pager = P.create () in
        let pid = T.with_txn pager (fun txn -> T.alloc txn Pg.Heap_page) in
        T.with_txn pager (fun txn ->
            let p = T.write txn pid in
            ignore (Pg.insert p "hello"));
        Alcotest.(check (option string)) "visible" (Some "hello")
          (Pg.get (P.read_committed pager pid) 0));
    Alcotest.test_case "uncommitted write is invisible to committed readers" `Quick (fun () ->
        let pager = P.create () in
        let pid = T.with_txn pager (fun txn -> T.alloc txn Pg.Heap_page) in
        let txn = T.begin_txn pager in
        let p = T.write txn pid in
        ignore (Pg.insert p "dirty");
        Alcotest.(check (option string)) "hidden" None (Pg.get (P.read_committed pager pid) 0);
        Alcotest.(check (option string)) "own write visible" (Some "dirty")
          (Pg.get (T.read txn pid) 0);
        T.abort txn);
    Alcotest.test_case "abort discards writes" `Quick (fun () ->
        let pager = P.create () in
        let pid = T.with_txn pager (fun txn -> T.alloc txn Pg.Heap_page) in
        let txn = T.begin_txn pager in
        ignore (Pg.insert (T.write txn pid) "x");
        T.abort txn;
        Alcotest.(check (option string)) "gone" None (Pg.get (P.read_committed pager pid) 0));
    Alcotest.test_case "with_txn aborts on exception" `Quick (fun () ->
        let pager = P.create () in
        let pid = T.with_txn pager (fun txn -> T.alloc txn Pg.Heap_page) in
        (try
           T.with_txn pager (fun txn ->
               ignore (Pg.insert (T.write txn pid) "x");
               failwith "boom")
         with Failure _ -> ());
        Alcotest.(check (option string)) "rolled back" None
          (Pg.get (P.read_committed pager pid) 0));
    Alcotest.test_case "commit hook receives before-images" `Quick (fun () ->
        let pager = P.create () in
        let pid = T.with_txn pager (fun txn -> T.alloc txn Pg.Heap_page) in
        T.with_txn pager (fun txn -> ignore (Pg.insert (T.write txn pid) "v1"));
        let captured = ref [] in
        pager.P.pre_commit_hook <- (fun events -> captured := events);
        T.with_txn pager (fun txn -> ignore (Pg.insert (T.write txn pid) "v2"));
        (match !captured with
        | [ ev ] ->
          Alcotest.(check int) "pid" pid ev.P.pid;
          (match ev.P.before with
          | Some before ->
            Alcotest.(check (option string)) "before-image has v1 only" (Some "v1")
              (Pg.get before 0);
            Alcotest.(check (option string)) "before-image lacks v2" None (Pg.get before 1)
          | None -> Alcotest.fail "expected a before-image")
        | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs)));
    Alcotest.test_case "fresh pages have no before-image" `Quick (fun () ->
        let pager = P.create () in
        let captured = ref [] in
        pager.P.pre_commit_hook <- (fun events -> captured := events);
        ignore (T.with_txn pager (fun txn -> T.alloc txn Pg.Heap_page));
        (match !captured with
        | [ ev ] -> Alcotest.(check bool) "no before" true (ev.P.before = None)
        | _ -> Alcotest.fail "expected 1 event"));
    Alcotest.test_case "aborted allocation recycles the page id" `Quick (fun () ->
        let pager = P.create () in
        let txn = T.begin_txn pager in
        let pid = T.alloc txn Pg.Heap_page in
        T.abort txn;
        let pid2 = T.with_txn pager (fun txn -> T.alloc txn Pg.Heap_page) in
        Alcotest.(check int) "recycled" pid pid2);
    Alcotest.test_case "freed page recycled with old image as before" `Quick (fun () ->
        let pager = P.create () in
        let pid = T.with_txn pager (fun txn -> T.alloc txn Pg.Heap_page) in
        T.with_txn pager (fun txn -> ignore (Pg.insert (T.write txn pid) "old"));
        T.with_txn pager (fun txn -> T.free txn pid);
        let captured = ref [] in
        pager.P.pre_commit_hook <- (fun events -> captured := events);
        let pid2 = T.with_txn pager (fun txn -> T.alloc txn Pg.Heap_page) in
        Alcotest.(check int) "same id" pid pid2;
        (match !captured with
        | [ ev ] -> (
          match ev.P.before with
          | Some before ->
            Alcotest.(check (option string)) "old content preserved" (Some "old")
              (Pg.get before 0)
          | None -> Alcotest.fail "recycled page must carry its old image")
        | _ -> Alcotest.fail "expected 1 event"));
    Alcotest.test_case "double commit rejected" `Quick (fun () ->
        let pager = P.create () in
        let txn = T.begin_txn pager in
        T.commit txn;
        Alcotest.check_raises "second commit" (Invalid_argument "Txn: transaction is not active")
          (fun () -> T.commit txn));
    Alcotest.test_case "stats count commits and aborts" `Quick (fun () ->
        let pager = P.create () in
        let get = Obs.Scope.get in
        let c0 = get Storage.Stats.c_txn_commits and a0 = get Storage.Stats.c_txn_aborts in
        T.with_txn pager (fun _ -> ());
        (try T.with_txn pager (fun _ -> failwith "x") with Failure _ -> ());
        Alcotest.(check int) "commits" 1 (get Storage.Stats.c_txn_commits - c0);
        Alcotest.(check int) "aborts" 1 (get Storage.Stats.c_txn_aborts - a0)) ]

let () = Alcotest.run "txn" [ ("txn", tests) ]
