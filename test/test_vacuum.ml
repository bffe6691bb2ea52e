(* Archive-lifecycle tests: VACUUM SNAPSHOTS (dry-run/live parity, AS OF
   byte-identity across the UW matrix, damaged-prefix reclaim),
   CHECKPOINT with bounded recovery replay, the auto-checkpoint trigger,
   maintenance exclusion, and bounded retries for transient read
   faults. *)

module R = Storage.Record
module E = Sqldb.Engine
module F = Storage.Fault
module S = Storage.Stats

let cget = Obs.Scope.get

let e db sql = ignore (E.exec db sql)

let count db sql = E.int_scalar db sql

let retro_of db = Option.get db.Sqldb.Db.retro

let fresh name =
  let p = Filename.concat (Filename.get_temp_dir_name ()) name in
  List.iter
    (fun q -> if Sys.file_exists q then Sys.remove q)
    [ p; p ^ ".swap"; p ^ ".ckpt"; p ^ ".ckpt.new"; p ^ ".ckpt.tmp" ];
  p

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

(* Sorted textual contents of [t], optionally AS OF a snapshot. *)
let contents db ?as_of t =
  let sql =
    match as_of with
    | None -> Printf.sprintf "SELECT * FROM %s" t
    | Some sid -> Printf.sprintf "SELECT AS OF %d * FROM %s" sid t
  in
  List.sort compare
    (List.map
       (fun row -> String.concat "," (Array.to_list (Array.map R.value_to_string row)))
       (E.exec db sql).E.rows)

(* A small update-heavy history: each round overwrites one row, inserts
   another and declares a snapshot, so every snapshot has its own
   archived delta. *)
let build_history ?(rounds = 5) () =
  let db = E.create () in
  e db "CREATE TABLE t (id INTEGER, v INTEGER)";
  e db "INSERT INTO t VALUES (1, 0), (2, 0), (3, 0), (4, 0)";
  for i = 1 to rounds do
    e db "BEGIN";
    e db (Printf.sprintf "UPDATE t SET v = %d WHERE id = %d" i (1 + (i mod 4)));
    e db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" (10 + i) i);
    e db "COMMIT WITH SNAPSHOT"
  done;
  db

let round_sql db i =
  e db "BEGIN";
  e db (Printf.sprintf "UPDATE t SET v = %d WHERE id = %d" i (1 + (i mod 2)));
  e db "COMMIT WITH SNAPSHOT"

let dry_run_totals (res : E.result) =
  List.fold_left
    (fun (blocks, bytes) row ->
      match row with
      | [| _; R.Int b; R.Int by |] -> (blocks + b, bytes + by)
      | _ -> Alcotest.fail "unexpected dry-run row shape")
    (0, 0) res.E.rows

(* --- vacuum -------------------------------------------------------------- *)

let vacuum_tests =
  [ Alcotest.test_case "dry run is exact and mutates nothing" `Quick (fun () ->
        let db = build_history ~rounds:6 () in
        let retro = retro_of db in
        let blocks0 = Retro.Pagelog.length retro.Retro.pagelog in
        let vac0 = cget S.c_snapshots_vacuumed in
        let rec0 = cget S.c_blocks_reclaimed in
        let dry = E.exec db "VACUUM SNAPSHOTS KEEPING LAST 2 DRY RUN" in
        Alcotest.(check (array string))
          "columns"
          [| "snapshot"; "blocks_reclaimable"; "bytes_reclaimable" |]
          dry.E.columns;
        Alcotest.(check int) "one row per candidate" 4 (List.length dry.E.rows);
        let dry_blocks, dry_bytes = dry_run_totals dry in
        Alcotest.(check bool) "something to reclaim" true (dry_blocks > 0);
        (* the dry run changed nothing, observably *)
        Alcotest.(check int) "pagelog unchanged" blocks0
          (Retro.Pagelog.length retro.Retro.pagelog);
        Alcotest.(check int) "first_live unchanged" 1 (Retro.first_live retro);
        Alcotest.(check int) "snapshot count unchanged" 6 (Retro.snapshot_count retro);
        Alcotest.(check int) "no vacuum counted" vac0 (cget S.c_snapshots_vacuumed);
        Alcotest.(check int) "no reclaim counted" rec0 (cget S.c_blocks_reclaimed);
        (* the live run reclaims exactly the estimate *)
        (match (E.exec db "VACUUM SNAPSHOTS KEEPING LAST 2").E.rows with
        | [ [| R.Int snaps; R.Int blocks; R.Int bytes |] ] ->
          Alcotest.(check int) "snapshots dropped" 4 snaps;
          Alcotest.(check int) "block parity" dry_blocks blocks;
          Alcotest.(check int) "byte parity" dry_bytes bytes
        | _ -> Alcotest.fail "unexpected live-run result shape");
        Alcotest.(check int) "device shrank by the estimate" (blocks0 - dry_blocks)
          (Retro.Pagelog.length retro.Retro.pagelog);
        Alcotest.(check int) "vacuumed counted" (vac0 + 4) (cget S.c_snapshots_vacuumed);
        Alcotest.(check int) "reclaim counted" (rec0 + dry_blocks)
          (cget S.c_blocks_reclaimed));
    Alcotest.test_case "ids never renumber; retentions are idempotent" `Quick (fun () ->
        let db = build_history ~rounds:4 () in
        let retro = retro_of db in
        let pre = contents db ~as_of:4 "t" in
        ignore (E.exec db "VACUUM SNAPSHOTS OLDER THAN 3");
        Alcotest.(check int) "first_live" 3 (Retro.first_live retro);
        Alcotest.(check int) "ids preserved" 4 (Retro.snapshot_count retro);
        Alcotest.(check int) "live count" 2 (Retro.live_snapshot_count retro);
        Alcotest.(check bool) "AS OF a vacuumed id is refused" true
          (try
             ignore (E.exec db "SELECT AS OF 2 * FROM t");
             false
           with E.Error m -> has_sub m "vacuumed");
        Alcotest.(check (list string)) "survivor reads identically" pre
          (contents db ~as_of:4 "t");
        (* the same retention again is a clean no-op *)
        (match (E.exec db "VACUUM SNAPSHOTS OLDER THAN 3").E.rows with
        | [ [| R.Int 0; R.Int 0; R.Int 0 |] ] -> ()
        | _ -> Alcotest.fail "repeat vacuum was not a no-op");
        (* retention beyond the newest snapshot is an error *)
        Alcotest.(check bool) "OLDER THAN past the end is refused" true
          (try
             ignore (E.exec db "VACUUM SNAPSHOTS OLDER THAN 99");
             false
           with E.Error m -> has_sub m "no such snapshot");
        (* bare VACUUM SNAPSHOTS keeps only the newest *)
        ignore (E.exec db "VACUUM SNAPSHOTS");
        Alcotest.(check int) "only the newest is live" 4 (Retro.first_live retro);
        Alcotest.(check int) "vacuumed rows in sys_snapshots" 3
          (count db "SELECT COUNT(*) FROM sys_snapshots WHERE status = 'vacuumed'");
        Alcotest.(check int) "retained rows in sys_snapshots" 1
          (count db "SELECT COUNT(*) FROM sys_snapshots WHERE status = 'retained'");
        Alcotest.(check int) "sys_archive live count" 1
          (count db "SELECT snapshots_live FROM sys_archive");
        Alcotest.(check int) "sys_archive first_live" 4
          (count db "SELECT first_live FROM sys_archive"));
    Alcotest.test_case "retention must be a positive integer constant" `Quick (fun () ->
        let db = build_history ~rounds:2 () in
        List.iter
          (fun sql ->
            Alcotest.(check bool) (sql ^ " rejected") true
              (try
                 ignore (E.exec db sql);
                 false
               with E.Error m -> has_sub m "positive integer"))
          [ "VACUUM SNAPSHOTS OLDER THAN 0";
            "VACUUM SNAPSHOTS KEEPING LAST 'many'";
            "VACUUM SNAPSHOTS OLDER THAN 1 + 1" ]);
    Alcotest.test_case "AS OF byte-identity across the UW matrix" `Quick (fun () ->
        List.iter
          (fun (name, uw) ->
            let ctx, _st, sids =
              Tpch.Workload.build_history ~sf:0.002 ~uw ~snapshots:5 ()
            in
            let db = ctx.Rql.data in
            Alcotest.(check (list int)) (name ^ " ids") [ 1; 2; 3; 4; 5 ] sids;
            let keep = [ 4; 5 ] in
            let pre =
              List.map (fun sid -> (sid, contents db ~as_of:sid "orders")) keep
            in
            let dry_blocks, _ =
              dry_run_totals (E.exec db "VACUUM SNAPSHOTS KEEPING LAST 2 DRY RUN")
            in
            (match (E.exec db "VACUUM SNAPSHOTS KEEPING LAST 2").E.rows with
            | [ [| R.Int 3; R.Int blocks; _ |] ] ->
              Alcotest.(check int) (name ^ " parity") dry_blocks blocks
            | _ -> Alcotest.fail (name ^ ": unexpected vacuum result"));
            List.iter
              (fun (sid, want) ->
                Alcotest.(check (list string))
                  (Printf.sprintf "%s orders as of %d" name sid)
                  want
                  (contents db ~as_of:sid "orders"))
              pre;
            Alcotest.(check bool) (name ^ " vacuumed id refused") true
              (try
                 ignore (E.exec db "SELECT AS OF 2 COUNT(*) FROM orders");
                 false
               with E.Error _ -> true))
          [ ("uw30", Tpch.Workload.uw30); ("uw15", Tpch.Workload.uw15) ]);
    Alcotest.test_case "vacuuming a damaged prefix reclaims it and scrubs clean" `Quick
      (fun () ->
        let db = build_history ~rounds:4 () in
        let retro = retro_of db in
        Retro.corrupt_archive_block retro 0 ~bit:5;
        Alcotest.(check bool) "scrub pins the damage on snapshot 1" true
          (List.mem_assoc 1 (Retro.scrub retro));
        Alcotest.(check bool) "integrity reports it" true
          (Sqldb.Integrity.check db <> []);
        (* the damaged snapshot's blocks still count as reclaimable *)
        let dry_blocks, _ =
          dry_run_totals (E.exec db "VACUUM SNAPSHOTS OLDER THAN 2 DRY RUN")
        in
        Alcotest.(check bool) "damaged delta reclaimable" true (dry_blocks > 0);
        (match (E.exec db "VACUUM SNAPSHOTS OLDER THAN 2").E.rows with
        | [ [| R.Int 1; R.Int blocks; _ |] ] ->
          Alcotest.(check int) "reclaimed the estimate" dry_blocks blocks
        | _ -> Alcotest.fail "unexpected vacuum result");
        Alcotest.(check (list (pair int int))) "scrub clean after the vacuum" []
          (Retro.scrub retro);
        Alcotest.(check bool) "damaged flag pruned" false (Retro.is_damaged retro 1);
        (match (E.exec db "PRAGMA integrity_check").E.rows with
        | [ [| R.Text "ok" |] ] -> ()
        | _ -> Alcotest.fail "integrity_check not clean after vacuum");
        Alcotest.(check (list int)) "device checksums clean" []
          (Retro.verify_archive retro)) ]

(* --- checkpoint ---------------------------------------------------------- *)

let checkpoint_tests =
  [ Alcotest.test_case "recovery replays only the post-checkpoint suffix" `Quick
      (fun () ->
        let path = fresh "vacuum_ckpt.wal" in
        let db, r = Sqldb.Db.open_wal ~path () in
        Alcotest.(check bool) "fresh database" true (r = None);
        e db "CREATE TABLE t (id INTEGER, v INTEGER)";
        e db "INSERT INTO t VALUES (1, 0), (2, 0)";
        for i = 1 to 4 do
          round_sql db i
        done;
        (match (E.exec db "CHECKPOINT").E.rows with
        | [ [| R.Int 1; R.Int dropped |] ] ->
          Alcotest.(check bool) "bytes were truncated" true (dropped > 0)
        | _ -> Alcotest.fail "unexpected CHECKPOINT result");
        for i = 5 to 6 do
          round_sql db i
        done;
        let sids = [ 1; 2; 3; 4; 5; 6 ] in
        let pre = List.map (fun sid -> (sid, contents db ~as_of:sid "t")) sids in
        let final = contents db "t" in
        Sqldb.Db.close_wal db;
        (* first recovery: image + two-commit suffix *)
        let db2, r2 = Sqldb.Db.open_wal ~path () in
        let rep = (Option.get r2).Sqldb.Db.rec_report in
        Alcotest.(check (option int)) "checkpoint frame seen" (Some 1)
          rep.Storage.Wal.rep_checkpoint;
        Alcotest.(check int) "only the suffix replayed" 2 rep.Storage.Wal.rep_commits;
        Alcotest.(check int) "all snapshots present" 6
          (Retro.snapshot_count (retro_of db2));
        Alcotest.(check (list string)) "current state identical" final
          (contents db2 "t");
        List.iter
          (fun (sid, want) ->
            Alcotest.(check (list string))
              (Printf.sprintf "as of %d survives recovery" sid)
              want
              (contents db2 ~as_of:sid "t"))
          pre;
        (* vacuum commits through a checkpoint; a second recovery must
           restore the post-vacuum world with ids preserved *)
        ignore (E.exec db2 "VACUUM SNAPSHOTS KEEPING LAST 2");
        Sqldb.Db.close_wal db2;
        let db3, r3 = Sqldb.Db.open_wal ~path () in
        let rep3 = (Option.get r3).Sqldb.Db.rec_report in
        Alcotest.(check (option int)) "vacuum's checkpoint frame" (Some 2)
          rep3.Storage.Wal.rep_checkpoint;
        Alcotest.(check int) "nothing to replay" 0 rep3.Storage.Wal.rep_commits;
        let retro3 = retro_of db3 in
        Alcotest.(check int) "ids preserved across vacuum+recovery" 6
          (Retro.snapshot_count retro3);
        Alcotest.(check int) "prefix stays vacuumed" 5 (Retro.first_live retro3);
        List.iter
          (fun (sid, want) ->
            if sid >= 5 then
              Alcotest.(check (list string))
                (Printf.sprintf "as of %d after vacuum+recovery" sid)
                want
                (contents db3 ~as_of:sid "t"))
          pre;
        Alcotest.(check bool) "vacuumed id refused after recovery" true
          (try
             ignore (E.exec db3 "SELECT AS OF 4 * FROM t");
             false
           with E.Error m -> has_sub m "vacuumed");
        Sqldb.Db.close_wal db3);
    Alcotest.test_case "archive damage survives CHECKPOINT and reopen" `Quick (fun () ->
        let path = fresh "vacuum_ckpt_archive.wal" in
        let db, _ = Sqldb.Db.open_wal ~path () in
        e db "CREATE TABLE t (id INTEGER, v INTEGER)";
        e db "INSERT INTO t VALUES (1, 0), (2, 0)";
        for i = 1 to 3 do
          round_sql db i
        done;
        Retro.corrupt_archive_block (retro_of db) 0 ~bit:5;
        let scrub = Retro.scrub (retro_of db) in
        Alcotest.(check bool) "damage found before the checkpoint" true (scrub <> []);
        e db "CHECKPOINT";
        Sqldb.Db.close_wal db;
        let db2, r = Sqldb.Db.open_wal ~path () in
        Alcotest.(check (option int)) "recovered from the image" (Some 1)
          (Option.get r).Sqldb.Db.rec_report.Storage.Wal.rep_checkpoint;
        Alcotest.(check (list (pair int int))) "scrub re-finds it" scrub
          (Retro.scrub (retro_of db2));
        Sqldb.Db.close_wal db2);
    Alcotest.test_case "page damage survives CHECKPOINT and recovery" `Quick (fun () ->
        let path = fresh "vacuum_ckpt_page.wal" in
        let db, _ = Sqldb.Db.open_wal ~path () in
        e db "CREATE TABLE t (a INTEGER)";
        e db "INSERT INTO t VALUES (1), (2)";
        let pager = db.Sqldb.Db.pager in
        let pid = Storage.Pager.n_pages pager - 1 in
        Storage.Pager.corrupt_page pager pid ~bit:4;
        e db "CHECKPOINT";
        Sqldb.Db.close_wal db;
        let db2, _ = Sqldb.Db.open_wal ~path () in
        let rows =
          List.map (function [| R.Text s |] -> s | _ -> "?")
            (E.exec db2 "PRAGMA integrity_check").E.rows
        in
        Alcotest.(check bool) "recovered page still fails its checksum" true
          (List.mem (Printf.sprintf "page %d fails checksum" pid) rows);
        Sqldb.Db.close_wal db2);
    Alcotest.test_case "auto-checkpoint fires past the threshold" `Quick (fun () ->
        let path = fresh "vacuum_auto.wal" in
        let db, _ = Sqldb.Db.open_wal ~path () in
        e db "CREATE TABLE t (a INTEGER)";
        Alcotest.(check int) "threshold defaults to off" 0
          (count db "PRAGMA checkpoint_threshold");
        e db "PRAGMA checkpoint_threshold=1";
        Alcotest.(check int) "threshold readable" 1
          (count db "PRAGMA checkpoint_threshold");
        let ck0 = cget S.c_checkpoints in
        let tr0 = cget S.c_wal_truncated_bytes in
        e db "BEGIN";
        e db "INSERT INTO t VALUES (1)";
        e db "COMMIT";
        Alcotest.(check int) "commit triggered a checkpoint" (ck0 + 1)
          (cget S.c_checkpoints);
        Alcotest.(check bool) "truncated bytes counted" true
          (cget S.c_wal_truncated_bytes > tr0);
        let s = Option.get (Sqldb.Db.wal_status db) in
        Alcotest.(check int) "log reset behind the checkpoint" 0
          s.Storage.Wal.st_since_checkpoint;
        Alcotest.(check int) "row survived" 1 (count db "SELECT COUNT(*) FROM t");
        Sqldb.Db.close_wal db);
    Alcotest.test_case "CHECKPOINT requires a WAL and no open transaction" `Quick
      (fun () ->
        let db = build_history ~rounds:1 () in
        Alcotest.(check bool) "no WAL refused" true
          (try
             ignore (E.exec db "CHECKPOINT");
             false
           with E.Error m -> has_sub m "write-ahead log");
        let path = fresh "vacuum_txn.wal" in
        let db2, _ = Sqldb.Db.open_wal ~path () in
        e db2 "CREATE TABLE t (a INTEGER)";
        e db2 "BEGIN";
        e db2 "INSERT INTO t VALUES (1)";
        Alcotest.(check bool) "inside a transaction refused" true
          (try
             ignore (E.exec db2 "CHECKPOINT");
             false
           with E.Error m -> has_sub m "transaction");
        e db2 "COMMIT";
        (match (E.exec db2 "CHECKPOINT").E.rows with
        | [ [| R.Int 1; _ |] ] -> ()
        | _ -> Alcotest.fail "checkpoint after COMMIT failed");
        Sqldb.Db.close_wal db2) ]

(* --- concurrency --------------------------------------------------------- *)

let concurrency_tests =
  [ Alcotest.test_case "vacuum waits for readers; second maintenance refused" `Quick
      (fun () ->
        let db = build_history ~rounds:4 () in
        let pager = db.Sqldb.Db.pager in
        let reader_released = ref 0. in
        let reader =
          Domain.spawn (fun () ->
              Storage.Pager.with_read_lock pager (fun () ->
                  Unix.sleepf 0.08;
                  reader_released := Unix.gettimeofday ()))
        in
        Unix.sleepf 0.02;
        (* while the first vacuum waits behind the reader it owns the
           maintenance flag, so a concurrent vacuum must error — not
           block, not interleave *)
        let second_refused = ref false in
        let second =
          Domain.spawn (fun () ->
              Unix.sleepf 0.02;
              try ignore (E.exec db "VACUUM SNAPSHOTS KEEPING LAST 2")
              with E.Error m -> second_refused := has_sub m "maintenance")
        in
        ignore (E.exec db "VACUUM SNAPSHOTS KEEPING LAST 3");
        let vacuumed_at = Unix.gettimeofday () in
        Domain.join reader;
        Domain.join second;
        Alcotest.(check bool) "vacuum blocked behind the reader" true
          (vacuumed_at >= !reader_released);
        Alcotest.(check bool) "concurrent maintenance refused" true !second_refused;
        Alcotest.(check int) "first vacuum won" 2 (Retro.first_live (retro_of db))) ]

(* --- transient read faults ----------------------------------------------- *)

let retry_tests =
  [ Alcotest.test_case "transient read fault heals within the retry budget" `Quick
      (fun () ->
        let db = build_history ~rounds:2 () in
        let retro = retro_of db in
        let f = F.create ~seed:7 () in
        Retro.set_archive_fault retro (Some f);
        Retro.clear_cache retro;
        (* once-armed: the first probe consumes the fault, a retry
           succeeds, and the snapshot is never marked damaged *)
        F.arm_read_error f ~once:true ~device:Retro.archive_device ~index:0;
        let r0 = cget S.c_read_retries in
        Alcotest.(check int) "read healed by retry" 2
          (count db "SELECT AS OF 1 SUM(v) FROM t");
        Alcotest.(check bool) "retry counted" true (cget S.c_read_retries > r0);
        Alcotest.(check bool) "not marked damaged" false (Retro.is_damaged retro 1);
        (* persistent: the bounded budget exhausts and the read fails *)
        F.arm_read_error f ~device:Retro.archive_device ~index:0;
        Retro.clear_cache retro;
        Alcotest.(check bool) "persistent fault still fails" true
          (try
             ignore (E.exec db "SELECT AS OF 1 * FROM t");
             false
           with E.Error _ -> true);
        F.disarm_read_error f ~device:Retro.archive_device ~index:0;
        Retro.clear_cache retro;
        Alcotest.(check int) "reads recover once disarmed" 2
          (count db "SELECT AS OF 1 SUM(v) FROM t")) ]

let () =
  Alcotest.run "vacuum"
    [ ("vacuum", vacuum_tests);
      ("checkpoint", checkpoint_tests);
      ("concurrency", concurrency_tests);
      ("read-retries", retry_tests) ]
