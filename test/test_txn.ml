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
    Alcotest.test_case "a never-installed id survives images and recycles as fresh" `Quick
      (fun () ->
        (* an aborted allocation leaves an id past every installed page
           that holds no committed image *)
        let db = Sqldb.Engine.create () in
        ignore (Sqldb.Engine.exec db "CREATE TABLE t (a INTEGER)");
        ignore (Sqldb.Engine.exec db "INSERT INTO t VALUES (1)");
        ignore (Sqldb.Engine.exec db "COMMIT WITH SNAPSHOT");
        let pager = db.Sqldb.Db.pager in
        let txn = T.begin_txn pager in
        let pid = T.alloc txn Pg.Heap_page in
        T.abort txn;
        let n = P.n_pages pager in
        Alcotest.(check int) "the last id" (n - 1) pid;
        let check_never_installed what p =
          Alcotest.(check int) (what ^ ": n_pages") n (P.n_pages p);
          Alcotest.(check bool) (what ^ ": peek") true (P.peek_committed p pid = None);
          Alcotest.(check bool) (what ^ ": read raises") true
            (match P.read_committed p pid with
             | _ -> false
             | exception Invalid_argument _ -> true);
          Alcotest.(check (list int)) (what ^ ": checksums") [] (P.verify_checksums p)
        in
        check_never_installed "live" pager;
        check_never_installed "dump/restore" (P.restore (P.dump pager));
        let path = Filename.temp_file "rql_txn" ".img" in
        Sqldb.Backup.save db ~path;
        let loaded = Sqldb.Backup.load ~path in
        Sys.remove path;
        check_never_installed "backup" loaded.Sqldb.Db.pager;
        let archived = Obs.Scope.get Storage.Stats.c_cow_archived in
        let captured = ref [] in
        let retro_hook = pager.P.pre_commit_hook in
        pager.P.pre_commit_hook <-
          (fun events ->
            captured := events;
            retro_hook events);
        let pid2 = T.with_txn pager (fun txn -> T.alloc txn Pg.Heap_page) in
        Alcotest.(check int) "recycled" pid pid2;
        (match !captured with
        | [ ev ] -> Alcotest.(check bool) "no before" true (ev.P.before = None)
        | evs -> Alcotest.failf "expected 1 event, got %d" (List.length evs));
        Alcotest.(check int) "nothing archived" archived
          (Obs.Scope.get Storage.Stats.c_cow_archived));
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
