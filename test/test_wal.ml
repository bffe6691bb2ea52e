(* Durability tests: checksummed block device, WAL append/recover
   round-trips, torn and bit-flipped tails, deterministic fault
   injection, group commit, transaction failure paths, and corruption
   scoped to the snapshots that reference it. *)

module R = Storage.Record
module E = Sqldb.Engine
module W = Storage.Wal
module F = Storage.Fault
module S = Storage.Stats

let cget = Obs.Scope.get

(* Transaction and WAL counters at a point in time, and the delta of one
   of them since such a reading. *)
let counts () =
  List.map (fun c -> (c, cget c)) [ S.c_wal_appends; S.c_wal_fsyncs; S.c_txn_commits; S.c_txn_aborts ]

let since before c = cget c - List.assq c before

let fresh name =
  let p = Filename.concat (Filename.get_temp_dir_name ()) name in
  if Sys.file_exists p then Sys.remove p;
  p

let e db sql = ignore (E.exec db sql)

let count db sql = E.int_scalar db sql

let check_clean name db = Alcotest.(check (list string)) name [] (Sqldb.Integrity.check db)

let wal_of db = Option.get (Sqldb.Db.wal db)

let retro_of db = Option.get db.Sqldb.Db.retro

(* --- the simulated block device ------------------------------------------ *)

let disk_tests =
  [ Alcotest.test_case "read returns a defensive copy" `Quick (fun () ->
        let d = Storage.Disk.create () in
        let b = Bytes.make Storage.Page.size 'a' in
        let i = Storage.Disk.append d b in
        (* mutating the source after append must not reach the device *)
        Bytes.set b 0 'z';
        let r1 = Storage.Disk.read d i in
        Alcotest.(check char) "append copied" 'a' (Bytes.get r1 0);
        (* mutating a read buffer must not reach the device either *)
        Bytes.set r1 0 'q';
        let r2 = Storage.Disk.read d i in
        Alcotest.(check char) "read copied" 'a' (Bytes.get r2 0);
        Alcotest.(check (list int)) "clean" [] (Storage.Disk.verify_all d));
    Alcotest.test_case "bit flip detected by block checksum" `Quick (fun () ->
        let d = Storage.Disk.create ~name:"dev" () in
        let i0 = Storage.Disk.append d (Bytes.make Storage.Page.size 'x') in
        let i1 = Storage.Disk.append d (Bytes.make Storage.Page.size 'y') in
        Storage.Disk.corrupt_block d i0 ~bit:3;
        Alcotest.(check (list int)) "scrub finds it" [ i0 ] (Storage.Disk.verify_all d);
        Alcotest.(check bool) "read raises" true
          (try
             ignore (Storage.Disk.read d i0);
             false
           with Storage.Disk.Corruption { device; block; _ } ->
             device = "dev" && block = i0);
        (* the neighbouring block is unaffected *)
        Alcotest.(check char) "other block fine" 'y' (Bytes.get (Storage.Disk.read d i1) 0));
    Alcotest.test_case "armed read error fails exactly the armed block" `Quick (fun () ->
        let d = Storage.Disk.create ~name:"dev" () in
        let i0 = Storage.Disk.append d (Bytes.make Storage.Page.size 'x') in
        let i1 = Storage.Disk.append d (Bytes.make Storage.Page.size 'y') in
        let f = F.create ~seed:1 () in
        F.arm_read_error f ~device:"dev" ~index:i0;
        Storage.Disk.set_fault d (Some f);
        Alcotest.(check bool) "armed block fails" true
          (try
             ignore (Storage.Disk.read d i0);
             false
           with Storage.Disk.Read_error { block; _ } -> block = i0);
        Alcotest.(check char) "other block fine" 'y' (Bytes.get (Storage.Disk.read d i1) 0);
        Storage.Disk.set_fault d None;
        Alcotest.(check char) "disarmed" 'x' (Bytes.get (Storage.Disk.read d i0) 0)) ]

(* --- WAL round-trips ------------------------------------------------------ *)

let build_wal_db path =
  let db, rec_ = Sqldb.Db.open_wal ~path () in
  Alcotest.(check bool) "fresh open reports no recovery" true (rec_ = None);
  e db "CREATE TABLE t (a INTEGER)";
  e db "BEGIN";
  e db "INSERT INTO t VALUES (1)";
  e db "COMMIT WITH SNAPSHOT";
  e db "BEGIN";
  e db "INSERT INTO t VALUES (2)";
  e db "UPDATE t SET a = a + 10 WHERE a = 1";
  e db "COMMIT WITH SNAPSHOT";
  e db "INSERT INTO t VALUES (3)";
  db

let wal_tests =
  [ Alcotest.test_case "close and reopen reproduces state and history" `Quick (fun () ->
        let path = fresh "rql_wal_rt.wal" in
        let db = build_wal_db path in
        Sqldb.Db.close_wal db;
        let db2, rec_ = Sqldb.Db.open_wal ~path () in
        let r = Option.get rec_ in
        Alcotest.(check bool) "clean log" false
          (r.Sqldb.Db.rec_report.W.rep_torn || r.Sqldb.Db.rec_report.W.rep_corrupt);
        Alcotest.(check int) "snapshots recovered" 2 r.Sqldb.Db.rec_snapshots;
        Alcotest.(check (list int)) "none damaged" [] r.Sqldb.Db.rec_damaged;
        Alcotest.(check int) "rows" 3 (count db2 "SELECT COUNT(*) FROM t");
        Alcotest.(check int) "as of 1" 1 (count db2 "SELECT AS OF 1 COUNT(*) FROM t");
        Alcotest.(check int) "as of 1 value" 1 (count db2 "SELECT AS OF 1 SUM(a) FROM t");
        Alcotest.(check int) "as of 2 value" 13 (count db2 "SELECT AS OF 2 SUM(a) FROM t");
        check_clean "recovered integrity" db2;
        (* new work stacks on the recovered history *)
        e db2 "BEGIN";
        e db2 "INSERT INTO t VALUES (4)";
        let res = E.exec db2 "COMMIT WITH SNAPSHOT" in
        Alcotest.(check (option int)) "ids continue" (Some 3) res.E.snapshot;
        Alcotest.(check int) "as of 3" 4 (count db2 "SELECT AS OF 3 COUNT(*) FROM t");
        Sqldb.Db.close_wal db2;
        Sys.remove path);
    Alcotest.test_case "recovery is idempotent" `Quick (fun () ->
        let path = fresh "rql_wal_idem.wal" in
        let db = build_wal_db path in
        Sqldb.Db.close_wal db;
        let db2, _ = Sqldb.Db.open_wal ~path () in
        Sqldb.Db.close_wal db2;
        let db3, rec_ = Sqldb.Db.open_wal ~path () in
        Alcotest.(check bool) "still a recovery" true (rec_ <> None);
        Alcotest.(check int) "rows stable" 3 (count db3 "SELECT COUNT(*) FROM t");
        Alcotest.(check int) "snapshots stable" 2 (Retro.snapshot_count (retro_of db3));
        check_clean "still clean" db3;
        Sqldb.Db.close_wal db3;
        Sys.remove path);
    Alcotest.test_case "torn tail truncated to the last complete commit" `Quick (fun () ->
        let path = fresh "rql_wal_torn.wal" in
        let db, _ = Sqldb.Db.open_wal ~path () in
        e db "CREATE TABLE t (a INTEGER)";
        e db "INSERT INTO t VALUES (1)";
        e db "INSERT INTO t VALUES (2)";
        let f = F.create ~seed:99 () in
        (* op 1 = the commit's append (buffered); op 2 = the flush —
           crash there so a seeded strict prefix of the frame lands *)
        F.arm_crash f ~after_ops:2 ~torn:true;
        W.set_fault (wal_of db) (Some f);
        Alcotest.(check bool) "workload crashes" true
          (try
             e db "INSERT INTO t VALUES (3)";
             false
           with F.Crash -> true);
        let before = cget S.c_torn_tail_discards in
        let db2, rec_ = Sqldb.Db.open_wal ~path () in
        let r = (Option.get rec_).Sqldb.Db.rec_report in
        Alcotest.(check bool) "torn iff trailing bytes" r.W.rep_torn
          (r.W.rep_total_bytes > r.W.rep_valid_bytes);
        Alcotest.(check int) "discard counted" (if r.W.rep_torn then before + 1 else before)
          (cget S.c_torn_tail_discards);
        Alcotest.(check int) "lost commit rolled away" 2 (count db2 "SELECT COUNT(*) FROM t");
        check_clean "integrity after torn recovery" db2;
        (* the truncated log accepts appends from the commit boundary *)
        e db2 "INSERT INTO t VALUES (30)";
        Sqldb.Db.close_wal db2;
        let db3, _ = Sqldb.Db.open_wal ~path () in
        Alcotest.(check int) "append after truncation durable" 3
          (count db3 "SELECT COUNT(*) FROM t");
        Sqldb.Db.close_wal db3;
        Sys.remove path);
    Alcotest.test_case "bit-flipped log truncated at the damaged frame" `Quick (fun () ->
        let path = fresh "rql_wal_flip.wal" in
        let db = build_wal_db path in
        Sqldb.Db.close_wal db;
        let f = F.create ~seed:5 () in
        Alcotest.(check bool) "flip landed" true
          (F.flip_bit_in_file f ~path ~min_off:12 <> None);
        let before = cget S.c_torn_tail_discards in
        let db2, rec_ = Sqldb.Db.open_wal ~path () in
        let r = (Option.get rec_).Sqldb.Db.rec_report in
        Alcotest.(check bool) "damage detected" true (r.W.rep_torn || r.W.rep_corrupt);
        Alcotest.(check int) "discard counted" (before + 1) (cget S.c_torn_tail_discards);
        check_clean "valid prefix is consistent" db2;
        (* the database still accepts new work *)
        e db2 "BEGIN";
        e db2 "CREATE TABLE post (x INTEGER)";
        e db2 "INSERT INTO post VALUES (7)";
        let res = E.exec db2 "COMMIT WITH SNAPSHOT" in
        let sid = Option.get res.E.snapshot in
        Alcotest.(check int) "new snapshot readable" 7
          (count db2 (Printf.sprintf "SELECT AS OF %d SUM(x) FROM post" sid));
        Sqldb.Db.close_wal db2;
        Sys.remove path);
    Alcotest.test_case "non-WAL file rejected with a typed error" `Quick (fun () ->
        let path = fresh "rql_wal_garbage.wal" in
        let oc = open_out_bin path in
        output_string oc "certainly not a write-ahead log";
        close_out oc;
        Alcotest.(check bool) "raises Wal.Error" true
          (try
             ignore (Sqldb.Db.open_wal ~path ());
             false
           with W.Error _ -> true);
        Sys.remove path) ]

(* --- group commit --------------------------------------------------------- *)

let group_commit_tests =
  [ Alcotest.test_case "batches fsyncs and loses the tail coherently" `Quick (fun () ->
        let path = fresh "rql_wal_gc.wal" in
        let db, _ = Sqldb.Db.open_wal ~group_commit:3 ~path () in
        e db "CREATE TABLE t (a INTEGER)";
        for i = 1 to 6 do
          e db (Printf.sprintf "INSERT INTO t VALUES (%d)" i)
        done;
        (* 8 durability barriers (bootstrap, DDL, 6 inserts) at one
           fsync per 3 barriers: flushed after barrier 3 and 6; inserts
           5 and 6 still pending in memory *)
        let st = W.status (wal_of db) in
        Alcotest.(check int) "fsyncs batched" 2 st.W.st_fsyncs;
        Alcotest.(check bool) "tail pending" true (st.W.st_pending_bytes > 0);
        (* recover from the file as-is: the unflushed tail is lost as a
           unit — exactly the commits after the last batch boundary *)
        let db2, rec_ = Sqldb.Db.open_wal ~path:(st.W.st_path) () in
        Alcotest.(check bool) "recovered" true (rec_ <> None);
        Alcotest.(check int) "unflushed tail lost together" 4
          (count db2 "SELECT COUNT(*) FROM t");
        check_clean "consistent at the batch boundary" db2;
        Sqldb.Db.close_wal db2;
        Sqldb.Db.close_wal db;
        Sys.remove path);
    Alcotest.test_case "sync_wal forces the pending tail out" `Quick (fun () ->
        let path = fresh "rql_wal_sync.wal" in
        let db, _ = Sqldb.Db.open_wal ~group_commit:5 ~path () in
        e db "CREATE TABLE t (a INTEGER)";
        e db "INSERT INTO t VALUES (1)";
        Alcotest.(check bool) "pending before sync" true
          ((W.status (wal_of db)).W.st_pending_bytes > 0);
        Sqldb.Db.sync_wal db;
        Alcotest.(check int) "nothing pending" 0 (W.status (wal_of db)).W.st_pending_bytes;
        let db2, _ = Sqldb.Db.open_wal ~path () in
        Alcotest.(check int) "synced tail durable" 1 (count db2 "SELECT COUNT(*) FROM t");
        Sqldb.Db.close_wal db2;
        Sqldb.Db.close_wal db;
        Sys.remove path) ]

(* --- deterministic fault injection ---------------------------------------- *)

let fault_tests =
  [ Alcotest.test_case "same seed, same schedule" `Quick (fun () ->
        let draw f = List.init 32 (fun _ -> F.torn_length f ~len:1000) in
        let a = draw (F.create ~seed:7 ()) in
        let b = draw (F.create ~seed:7 ()) in
        Alcotest.(check (list int)) "torn lengths repeat" a b;
        Alcotest.(check bool) "different seed differs" true
          (a <> draw (F.create ~seed:8 ()));
        let flips f =
          List.init 16 (fun _ -> Option.get (F.flip_bit_in_bytes f (Bytes.create 64)))
        in
        Alcotest.(check (list (pair int int))) "flip positions repeat"
          (flips (F.create ~seed:7 ()))
          (flips (F.create ~seed:7 ())));
    Alcotest.test_case "tick crashes exactly once armed, then stays dead" `Quick (fun () ->
        let f = F.create ~seed:3 () in
        F.arm_crash f ~after_ops:3 ~torn:false;
        Alcotest.(check bool) "op 1 passes" true (F.tick f = None);
        Alcotest.(check bool) "op 2 passes" true (F.tick f = None);
        Alcotest.(check bool) "op 3 crashes" true (F.tick f = Some false);
        Alcotest.(check bool) "dead after crash" true
          (try
             ignore (F.tick f);
             false
           with F.Crash -> true);
        Alcotest.(check bool) "crashed flag" true (F.crashed f));
    Alcotest.test_case "mini crash matrix: every point recovers consistent" `Quick (fun () ->
        let workload db =
          e db "CREATE TABLE t (a INTEGER)";
          for i = 1 to 3 do
            e db "BEGIN";
            e db (Printf.sprintf "INSERT INTO t VALUES (%d)" i);
            e db (Printf.sprintf "INSERT INTO t VALUES (%d)" (10 * i));
            e db "COMMIT WITH SNAPSHOT"
          done
        in
        let path = fresh "rql_wal_mini.wal" in
        let db, _ = Sqldb.Db.open_wal ~path () in
        let counter = F.create ~seed:11 () in
        W.set_fault (wal_of db) (Some counter);
        workload db;
        let n_ops = F.op_count counter in
        Sqldb.Db.close_wal db;
        Alcotest.(check bool) "workload has injection points" true (n_ops > 0);
        for k = 1 to n_ops do
          let path = fresh "rql_wal_mini.wal" in
          let db, _ = Sqldb.Db.open_wal ~path () in
          let f = F.create ~seed:(11 + k) () in
          F.arm_crash f ~after_ops:k ~torn:(k mod 2 = 0);
          W.set_fault (wal_of db) (Some f);
          (try
             workload db;
             Alcotest.failf "k=%d: survived an armed crash" k
           with F.Crash -> ());
          let db2, rec_ = Sqldb.Db.open_wal ~path () in
          if rec_ = None then Alcotest.failf "k=%d: no recovery report" k;
          Alcotest.(check (list string)) (Printf.sprintf "k=%d integrity" k) []
            (Sqldb.Integrity.check db2);
          (* all-or-nothing: each commit inserted i and 10i together *)
          (match E.exec db2 "SELECT COUNT(*) FROM t" with
          | res ->
            (match res.E.rows with
            | [ [| R.Int n |] ] when n mod 2 <> 0 ->
              Alcotest.failf "k=%d: torn transaction (%d rows)" k n
            | _ -> ())
          | exception E.Error _ -> (* crashed before the CREATE committed *) ());
          Sqldb.Db.close_wal db2
        done;
        Sys.remove path) ]

(* --- transaction failure paths -------------------------------------------- *)

let txn_failure_tests =
  [ Alcotest.test_case "failing pre-commit hook leaves no trace" `Quick (fun () ->
        let path = fresh "rql_wal_hook.wal" in
        let db, _ = Sqldb.Db.open_wal ~path () in
        e db "CREATE TABLE t (a INTEGER)";
        e db "INSERT INTO t VALUES (1)";
        let pager = db.Sqldb.Db.pager in
        let orig = pager.Storage.Pager.pre_commit_hook in
        let before = counts () in
        pager.Storage.Pager.pre_commit_hook <- (fun _ -> failwith "archiver down");
        e db "BEGIN";
        e db "INSERT INTO t VALUES (2)";
        Alcotest.(check bool) "commit propagates the failure" true
          (try
             e db "COMMIT";
             false
           with Failure m -> m = "archiver down");
        pager.Storage.Pager.pre_commit_hook <- orig;
        e db "ROLLBACK";
        let d = since before in
        Alcotest.(check int) "nothing logged" 0 (d S.c_wal_appends);
        Alcotest.(check int) "nothing committed" 0 (d S.c_txn_commits);
        Alcotest.(check int) "one abort" 1 (d S.c_txn_aborts);
        Alcotest.(check int) "state untouched" 1 (count db "SELECT COUNT(*) FROM t");
        check_clean "integrity" db;
        Sqldb.Db.close_wal db;
        (* durability agrees: the failed transaction never reached the log *)
        let db2, _ = Sqldb.Db.open_wal ~path () in
        Alcotest.(check int) "failed txn not replayed" 1 (count db2 "SELECT COUNT(*) FROM t");
        Sqldb.Db.close_wal db2;
        Sys.remove path);
    Alcotest.test_case "rollback after partial writes leaves no trace" `Quick (fun () ->
        let path = fresh "rql_wal_rb.wal" in
        let db, _ = Sqldb.Db.open_wal ~path () in
        e db "CREATE TABLE t (a INTEGER)";
        e db "INSERT INTO t VALUES (1)";
        let before = counts () in
        e db "BEGIN";
        e db "INSERT INTO t VALUES (2)";
        e db "UPDATE t SET a = 99";
        e db "ROLLBACK";
        let d = since before in
        Alcotest.(check int) "nothing logged" 0 (d S.c_wal_appends);
        Alcotest.(check int) "no fsync" 0 (d S.c_wal_fsyncs);
        Alcotest.(check int) "one abort" 1 (d S.c_txn_aborts);
        Alcotest.(check int) "row count untouched" 1 (count db "SELECT COUNT(*) FROM t");
        Alcotest.(check int) "value untouched" 1 (count db "SELECT SUM(a) FROM t");
        Sqldb.Db.close_wal db;
        Sys.remove path) ]

(* --- corruption scoped to referencing snapshots --------------------------- *)

let scoping_tests =
  [ Alcotest.test_case "corrupt archive block damages only its snapshots" `Quick (fun () ->
        let db = E.create () in
        e db "CREATE TABLE t (a INTEGER)";
        e db "INSERT INTO t VALUES (1)";
        e db "COMMIT WITH SNAPSHOT"; (* snapshot 1 *)
        e db "UPDATE t SET a = 2"; (* archives snapshot 1's pages *)
        e db "COMMIT WITH SNAPSHOT"; (* snapshot 2 *)
        e db "UPDATE t SET a = 3"; (* archives snapshot 2's pages *)
        let retro = retro_of db in
        (* block 0 is the first page archived after snapshot 1 was
           declared — referenced by snapshot 1 alone *)
        Retro.corrupt_archive_block retro 0 ~bit:5;
        Retro.clear_cache retro;
        let before = cget S.c_checksum_failures in
        Alcotest.(check bool) "AS OF 1 fails as damaged" true
          (try
             ignore (E.exec db "SELECT AS OF 1 * FROM t");
             false
           with E.Error m ->
             let has_needle needle =
               let nl = String.length needle and ml = String.length m in
               let rec go i = i + nl <= ml && (String.sub m i nl = needle || go (i + 1)) in
               go 0
             in
             has_needle "damaged");
        Alcotest.(check int) "checksum failure counted" (before + 1)
          (cget S.c_checksum_failures);
        Alcotest.(check bool) "snapshot 1 marked" true (Retro.is_damaged retro 1);
        Alcotest.(check bool) "snapshot 2 not marked" false (Retro.is_damaged retro 2);
        (* everything not referencing the block still works *)
        Alcotest.(check int) "current state fine" 3 (count db "SELECT SUM(a) FROM t");
        Alcotest.(check int) "snapshot 2 fine" 2 (count db "SELECT AS OF 2 SUM(a) FROM t");
        (* scrub and the integrity checker name the same damage *)
        Alcotest.(check (list (pair int int))) "scrub scopes it" [ (1, 0) ]
          (Retro.scrub retro);
        Alcotest.(check bool) "integrity reports it" true
          (List.exists
             (fun p -> p = "snapshot 1 references corrupt pagelog block 0")
             (Sqldb.Integrity.check db));
        (* and sys_snapshots exposes the flag *)
        let res = E.exec db "SELECT snap_id FROM sys_snapshots WHERE damaged = 1" in
        Alcotest.(check bool) "sys_snapshots flags it" true
          (res.E.rows = [ [| R.Int 1 |] ]));
    Alcotest.test_case "armed archive read error fails the read, scoped" `Quick (fun () ->
        let db = E.create () in
        e db "CREATE TABLE t (a INTEGER)";
        e db "INSERT INTO t VALUES (1)";
        e db "COMMIT WITH SNAPSHOT";
        e db "UPDATE t SET a = 2";
        let retro = retro_of db in
        let f = F.create ~seed:2 () in
        F.arm_read_error f ~device:Retro.archive_device ~index:0;
        Retro.set_archive_fault retro (Some f);
        Retro.clear_cache retro;
        Alcotest.(check bool) "AS OF 1 fails" true
          (try
             ignore (E.exec db "SELECT AS OF 1 * FROM t");
             false
           with E.Error _ -> true);
        (* a latent read error is transient: the snapshot is not marked
           damaged, and the read succeeds once the fault clears *)
        Alcotest.(check bool) "not marked damaged" false (Retro.is_damaged retro 1);
        Retro.set_archive_fault retro None;
        Alcotest.(check int) "read works after fault clears" 1
          (count db "SELECT AS OF 1 SUM(a) FROM t")) ]

let () =
  Alcotest.run "wal"
    [ ("disk", disk_tests);
      ("wal", wal_tests);
      ("group-commit", group_commit_tests);
      ("faults", fault_tests);
      ("txn-failures", txn_failure_tests);
      ("corruption-scoping", scoping_tests) ]
