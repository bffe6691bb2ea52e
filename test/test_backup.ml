(* Backup/restore tests: a saved database reopens with its full snapshot
   history, AS OF queries and RQL mechanisms keep working, and new
   snapshots stack on top of the restored history. *)

module R = Storage.Record
module E = Sqldb.Engine

let value = Alcotest.testable R.pp_value R.equal_value

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let integrity_rows db =
  List.map
    (function [| R.Text s |] -> s | _ -> Alcotest.fail "integrity_check row shape")
    (E.exec db "PRAGMA integrity_check").E.rows

let build_ctx () =
  let ctx = Rql.create () in
  let e sql = ignore (E.exec ctx.Rql.data sql) in
  e "CREATE TABLE LoggedIn (l_userid TEXT, l_time TEXT, l_country TEXT)";
  e
    "INSERT INTO LoggedIn VALUES ('UserA','2008-11-09 13:23:44','USA'), ('UserB','2008-11-09 \
     15:45:21','UK'), ('UserC','2008-11-09 15:45:21','USA')";
  ignore (Rql.declare_snapshot ~name:"s1" ctx);
  e "DELETE FROM LoggedIn WHERE l_userid = 'UserA'";
  ignore (Rql.declare_snapshot ~name:"s2" ctx);
  e "INSERT INTO LoggedIn VALUES ('UserD','2008-11-11 10:08:04','UK')";
  ignore (Rql.declare_snapshot ~name:"s3" ctx);
  ctx

let retro_of db = Option.get db.Sqldb.Db.retro

let tests =
  [ Alcotest.test_case "db-level save/load preserves data" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER, b TEXT)");
        ignore (E.exec db "INSERT INTO t VALUES (1,'x'), (2,'y')");
        ignore (E.exec db "CREATE INDEX ia ON t (a)");
        let path = tmp "rql_test_db.img" in
        Sqldb.Backup.save db ~path;
        let db2 = Sqldb.Backup.load ~path in
        Alcotest.(check int) "rows" 2 (E.int_scalar db2 "SELECT COUNT(*) FROM t");
        Alcotest.(check value) "index works" (R.Text "y")
          (E.scalar db2 "SELECT b FROM t WHERE a = 2");
        (* the original is unaffected by writes to the copy *)
        ignore (E.exec db2 "DELETE FROM t");
        Alcotest.(check int) "original intact" 2 (E.int_scalar db "SELECT COUNT(*) FROM t");
        Sys.remove path);
    Alcotest.test_case "snapshot history survives a reload" `Quick (fun () ->
        let ctx = build_ctx () in
        let path = tmp "rql_test_ctx.img" in
        Rql.save ctx ~path;
        let ctx2 = Rql.load ~path in
        Alcotest.(check int) "snapids" 3
          (E.int_scalar ctx2.Rql.meta "SELECT COUNT(*) FROM SnapIds");
        Alcotest.(check int) "as of 1" 3
          (E.int_scalar ctx2.Rql.data "SELECT AS OF 1 COUNT(*) FROM LoggedIn");
        Alcotest.(check int) "as of 2" 2
          (E.int_scalar ctx2.Rql.data "SELECT AS OF 2 COUNT(*) FROM LoggedIn");
        Alcotest.(check value) "named snapshot" (R.Text "s2")
          (E.scalar ctx2.Rql.meta "SELECT snap_name FROM SnapIds WHERE snap_id = 2");
        Sys.remove path);
    Alcotest.test_case "mechanisms work on a restored context" `Quick (fun () ->
        let ctx = build_ctx () in
        let path = tmp "rql_test_ctx2.img" in
        Rql.save ctx ~path;
        let ctx2 = Rql.load ~path in
        let run =
          Rql.collate_data ctx2 ~qs:"SELECT snap_id FROM SnapIds"
            ~qq:"SELECT DISTINCT l_userid, current_snapshot() AS sid FROM LoggedIn"
            ~table:"T"
        in
        Alcotest.(check int) "rows" 8 run.Rql.Iter_stats.result_rows;
        (* the SQL-UDF form was re-registered too *)
        ignore
          (E.exec ctx2.Rql.meta
             "SELECT CollateData(snap_id, 'SELECT l_userid FROM LoggedIn', 'T2') FROM SnapIds");
        Alcotest.(check int) "udf rows" 8 (E.int_scalar ctx2.Rql.meta "SELECT COUNT(*) FROM T2");
        Sys.remove path);
    Alcotest.test_case "new snapshots stack on a restored history" `Quick (fun () ->
        let ctx = build_ctx () in
        let path = tmp "rql_test_ctx3.img" in
        Rql.save ctx ~path;
        let ctx2 = Rql.load ~path in
        ignore (E.exec ctx2.Rql.data "DELETE FROM LoggedIn WHERE l_userid = 'UserB'");
        let s4 = Rql.declare_snapshot ctx2 in
        Alcotest.(check int) "id continues" 4 s4;
        Alcotest.(check int) "as of 4" 2
          (E.int_scalar ctx2.Rql.data "SELECT AS OF 4 COUNT(*) FROM LoggedIn");
        (* COW still protects the restored snapshots *)
        Alcotest.(check int) "as of 3 unchanged" 3
          (E.int_scalar ctx2.Rql.data "SELECT AS OF 3 COUNT(*) FROM LoggedIn");
        Sys.remove path);
    Alcotest.test_case "open transaction blocks backup" `Quick (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER)");
        ignore (E.exec db "BEGIN");
        Alcotest.(check bool) "raises" true
          (try
             Sqldb.Backup.save db ~path:(tmp "nope.img");
             false
           with E.Error _ -> true)) ]

(* An archive block corrupted before a save is still corrupt after the
   load: the image carries each block's stored CRC, so the scrub and the
   integrity check name the same damaged snapshots as on the original. *)
let damage_tests =
  let survives name ~damaged ~roundtrip =
    let retro = retro_of damaged in
    Retro.corrupt_archive_block retro 0 ~bit:5;
    let scrub = Retro.scrub retro in
    Alcotest.(check bool) (name ^ ": original is damaged") true (scrub <> []);
    let restored = roundtrip () in
    Alcotest.(check (list (pair int int))) (name ^ ": scrub after the load") scrub
      (Retro.scrub (retro_of restored));
    let rows = integrity_rows restored in
    List.iter
      (fun (sid, off) ->
        Alcotest.(check bool)
          (Printf.sprintf "%s: integrity_check names snapshot %d" name sid)
          true
          (List.mem
             (Printf.sprintf "snapshot %d references corrupt pagelog block %d" sid off)
             rows))
      scrub
  in
  [ Alcotest.test_case "archive damage survives a backup save/load" `Quick (fun () ->
        let db = (build_ctx ()).Rql.data in
        let path = tmp "rql_damage_db.img" in
        survives "backup" ~damaged:db ~roundtrip:(fun () ->
            Sqldb.Backup.save db ~path;
            Sqldb.Backup.load ~path);
        Sys.remove path);
    Alcotest.test_case "archive damage survives a context save/load" `Quick (fun () ->
        let ctx = build_ctx () in
        let path = tmp "rql_damage_ctx.img" in
        survives "context" ~damaged:ctx.Rql.data ~roundtrip:(fun () ->
            Rql.save ctx ~path;
            (Rql.load ~path).Rql.data);
        Sys.remove path) ]

(* --- frame rejection, once per image kind -------------------------------- *)

(* An image kind: [save ()] writes a valid file and returns its path,
   [load path] reads it back, and [typed e] says whether [e] is the
   kind's typed rejection. *)
type kind = {
  save : unit -> string;
  load : string -> unit;
  typed : exn -> bool;
}

let small_db () =
  let db = E.create () in
  ignore (E.exec db "CREATE TABLE t (a INTEGER)");
  ignore (E.exec db "INSERT INTO t VALUES (1), (2), (3)");
  db

let backup_kind =
  { save =
      (fun () ->
        let path = tmp "rql_kind_backup.img" in
        Sqldb.Backup.save (small_db ()) ~path;
        path);
    load = (fun path -> ignore (Sqldb.Backup.load ~path));
    typed = (function E.Error _ -> true | _ -> false) }

let context_kind =
  { save =
      (fun () ->
        let path = tmp "rql_kind_ctx.img" in
        Rql.save (build_ctx ()) ~path;
        path);
    load = (fun path -> ignore (Rql.load ~path));
    typed = (function Rql.Error _ -> true | _ -> false) }

(* A checkpoint image is read by WAL recovery: a rejected image leaves
   the log's Checkpoint frame without a match. *)
let checkpoint_kind =
  let wal = tmp "rql_kind_ckpt.wal" in
  { save =
      (fun () ->
        List.iter
          (fun q -> if Sys.file_exists q then Sys.remove q)
          [ wal; wal ^ ".swap"; wal ^ ".ckpt"; wal ^ ".ckpt.new"; wal ^ ".ckpt.tmp" ];
        let db, _ = Sqldb.Db.open_wal ~path:wal () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER)");
        ignore (E.exec db "INSERT INTO t VALUES (1), (2), (3)");
        ignore (E.exec db "CHECKPOINT");
        Sqldb.Db.close_wal db;
        wal ^ ".ckpt");
    load =
      (fun _ ->
        let db, _ = Sqldb.Db.open_wal ~path:wal () in
        Sqldb.Db.close_wal db);
    typed = (function Storage.Wal.Error m -> has_sub m "no matching image" | _ -> false) }

let rejects k path =
  match k.load path with
  | () -> false
  | exception e when k.typed e -> true

let overwrite path ~off s =
  let oc = open_out_gen [ Open_wronly; Open_binary ] 0o644 path in
  seek_out oc off;
  output_string oc s;
  close_out oc

let rejection_tests k ~foreign =
  [ Alcotest.test_case "garbage file rejected" `Quick (fun () ->
        let path = k.save () in
        let oc = open_out_bin path in
        output_string oc "this is not a database";
        close_out oc;
        Alcotest.(check bool) "raises" true (rejects k path));
    Alcotest.test_case "truncated image rejected" `Quick (fun () ->
        let path = k.save () in
        let size = (Unix.stat path).Unix.st_size in
        (* the length check fires before Marshal sees any bytes *)
        Unix.truncate path (size - 5);
        Alcotest.(check bool) "raises on truncation" true (rejects k path);
        (* even losing a single byte is detected *)
        let path = k.save () in
        Unix.truncate path (size - 1);
        Alcotest.(check bool) "raises on 1-byte loss" true (rejects k path));
    Alcotest.test_case "bit-flipped image rejected by checksum" `Quick (fun () ->
        let f = Storage.Fault.create ~seed:17 () in
        (* ten seeded flips in the payload region: every one must be
           caught by the frame CRC before Marshal runs *)
        for _ = 1 to 10 do
          let path = k.save () in
          Alcotest.(check bool) "flip landed" true
            (Storage.Fault.flip_bit_in_file f ~path ~min_off:20 <> None);
          Alcotest.(check bool) "raises on corruption" true (rejects k path)
        done;
        (* a flip in the header is caught by the magic check *)
        let path = k.save () in
        overwrite path ~off:0 "X";
        Alcotest.(check bool) "bad magic rejected" true (rejects k path));
    Alcotest.test_case "trailing bytes rejected" `Quick (fun () ->
        let path = k.save () in
        let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
        output_string oc "\000";
        close_out oc;
        Alcotest.(check bool) "raises" true (rejects k path));
    Alcotest.test_case "old format version rejected" `Quick (fun () ->
        let path = k.save () in
        overwrite path ~off:8 "\002\000\000\000";
        Alcotest.(check bool) "raises" true (rejects k path);
        match k.load path with
        | () -> ()
        | exception E.Error m ->
          Alcotest.(check bool) m true (has_sub m "unsupported image format version 2")
        | exception Storage.Wal.Error _ -> ());
    Alcotest.test_case "wrong magic rejected" `Quick (fun () ->
        (* another kind's valid image under this kind's name *)
        let bytes = In_channel.with_open_bin (foreign.save ()) In_channel.input_all in
        let path = k.save () in
        Out_channel.with_open_bin path (fun oc -> output_string oc bytes);
        Alcotest.(check bool) "raises" true (rejects k path)) ]

let () =
  Alcotest.run "backup"
    [ ("backup", tests @ damage_tests @ rejection_tests backup_kind ~foreign:context_kind);
      ("ctx", rejection_tests context_kind ~foreign:backup_kind);
      ("ckpt", rejection_tests checkpoint_kind ~foreign:backup_kind) ]
