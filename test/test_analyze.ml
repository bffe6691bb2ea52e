(* Model test for Retro.analyze: on seeded random histories — growing
   databases, snapshots, AS OF reads, VACUUM SNAPSHOTS, and either WAL
   recovery or backup-file round trips — every field of the linear
   analysis equals the reference model's (test/analyze_model.ml), and
   ANALYZE ARCHIVE, sys_snapshots and VACUUM SNAPSHOTS ... DRY RUN print
   exactly the model's rows.  PRAGMA integrity_check (which checks the
   once-per-epoch archiving invariant the linear code rests on) stays
   clean throughout. *)

module R = Storage.Record
module E = Sqldb.Engine
module Model = Analyze_model

let e db sql = ignore (E.exec db sql)

let retro_of db = Option.get db.Sqldb.Db.retro

let fresh name =
  let p = Filename.concat (Filename.get_temp_dir_name ()) name in
  List.iter
    (fun q -> if Sys.file_exists q then Sys.remove q)
    [ p; p ^ ".swap"; p ^ ".ckpt"; p ^ ".ckpt.new"; p ^ ".ckpt.tmp" ];
  p

let check_info label (m : Retro.snapshot_info) (a : Retro.snapshot_info) =
  let ci f what =
    Alcotest.(check int) (Printf.sprintf "%s: snapshot %d %s" label m.si_id what) (f m) (f a)
  in
  ci (fun si -> si.Retro.si_id) "id";
  Alcotest.(check (float 0.)) (label ^ ": ts") m.si_ts a.si_ts;
  ci (fun si -> si.Retro.si_boundary) "boundary";
  ci (fun si -> si.Retro.si_db_pages) "db_pages";
  ci (fun si -> si.Retro.si_pages_mapped) "pages_mapped";
  ci (fun si -> si.Retro.si_delta_entries) "delta_entries";
  ci (fun si -> si.Retro.si_delta_pages) "delta_pages";
  ci (fun si -> si.Retro.si_delta_bytes) "delta_bytes"

let check_analysis label (m : Retro.analysis) (a : Retro.analysis) =
  let ci f what = Alcotest.(check int) (label ^ ": " ^ what) (f m) (f a) in
  let cf f what = Alcotest.(check (float 0.)) (label ^ ": " ^ what) (f m) (f a) in
  ci (fun x -> Array.length x.Retro.an_snapshots) "snapshots";
  Array.iteri (fun i si -> check_info label si a.Retro.an_snapshots.(i)) m.Retro.an_snapshots;
  ci (fun x -> x.Retro.an_maplog_entries) "maplog_entries";
  ci (fun x -> x.Retro.an_pagelog_pages) "pagelog_pages";
  ci (fun x -> x.Retro.an_pagelog_bytes) "pagelog_bytes";
  ci (fun x -> x.Retro.an_db_pages) "db_pages";
  ci (fun x -> x.Retro.an_distinct_pages) "distinct_pages";
  ci (fun x -> x.Retro.an_chain_max) "chain_max";
  cf (fun x -> x.Retro.an_chain_mean) "chain_mean";
  cf (fun x -> x.Retro.an_space_amplification) "space_amplification";
  Alcotest.(check bool) (label ^ ": skippy_enabled") m.Retro.an_skippy_enabled
    a.Retro.an_skippy_enabled;
  ci (fun x -> x.Retro.an_skippy_l1) "skippy_l1";
  ci (fun x -> x.Retro.an_skippy_l2) "skippy_l2";
  ci (fun x -> x.Retro.an_skippy_entries) "skippy_entries"

let row = Alcotest.testable (fun ppf r ->
    Fmt.pf ppf "[%s]" (String.concat "; " (Array.to_list (Array.map R.value_to_string r)))) ( = )

(* Every surface against the model, on the current state. *)
let check_all label db =
  let retro = retro_of db in
  let m = Model.analyze retro in
  check_analysis label m (Retro.analyze retro);
  let model_sys = Model.sys_snapshots_rows retro in
  Alcotest.(check (list row)) (label ^ ": sys_snapshots") model_sys
    (E.exec db "SELECT * FROM sys_snapshots").E.rows;
  Alcotest.(check (list string)) (label ^ ": ANALYZE ARCHIVE") (Model.render m)
    (List.map
       (function [| R.Text l |] -> l | _ -> Alcotest.fail "ANALYZE ARCHIVE row shape")
       (E.exec db "ANALYZE ARCHIVE").E.rows);
  let count = Retro.snapshot_count retro in
  for n = 1 to count do
    Alcotest.(check (list row)) (Printf.sprintf "%s: DRY RUN older than %d" label n)
      (Model.dry_run_rows retro ~keep_from:(max n (Retro.first_live retro)))
      (E.exec db (Printf.sprintf "VACUUM SNAPSHOTS OLDER THAN %d DRY RUN" n)).E.rows
  done;
  Alcotest.(check (list string)) (label ^ ": integrity") [] (Sqldb.Integrity.check db)

(* One seeded history of [steps] random steps.  [wal] picks how the
   history is persisted and reopened mid-way: close and recover the WAL,
   or round-trip the database through a backup file. *)
let history ~seed ~wal ~steps =
  let rng = Random.State.make [| seed |] in
  let path = fresh (Printf.sprintf "analyze_model_%d.%s" seed (if wal then "wal" else "img")) in
  let db = ref (if wal then fst (Sqldb.Db.open_wal ~path ()) else E.create ()) in
  e !db "CREATE TABLE t (id INTEGER, v TEXT)";
  let next_id = ref 0 and vacuums = ref 0 and reopens = ref 0 in
  let pad () =
    String.make (20 + Random.State.int rng 200) (Char.chr (97 + Random.State.int rng 26))
  in
  let insert k =
    for _ = 1 to k do
      incr next_id;
      e !db (Printf.sprintf "INSERT INTO t VALUES (%d, '%s')" !next_id (pad ()))
    done
  in
  let update () =
    let m = 2 + Random.State.int rng 6 in
    e !db
      (Printf.sprintf "UPDATE t SET v = '%s' WHERE id %% %d = %d" (pad ()) m
         (Random.State.int rng m))
  in
  insert 20;
  for step = 1 to steps do
    let retro = retro_of !db in
    let count = Retro.snapshot_count retro in
    (match Random.State.int rng 10 with
    | 0 | 1 -> insert (5 + Random.State.int rng 40) (* grows db_pages *)
    | 2 -> update ()
    | 3 -> e !db (Printf.sprintf "DELETE FROM t WHERE id %% 11 = %d" (Random.State.int rng 11))
    | 4 | 5 ->
      e !db "BEGIN";
      update ();
      if Random.State.bool rng then insert (1 + Random.State.int rng 10);
      e !db "COMMIT WITH SNAPSHOT"
    | 6 when count > 0 ->
      (* builds an SPT and memoizes skip digests *)
      let fl = Retro.first_live retro in
      let s = fl + Random.State.int rng (count - fl + 1) in
      ignore (E.exec !db (Printf.sprintf "SELECT AS OF %d COUNT(id) FROM t" s))
    | 7 when count > 1 ->
      incr vacuums;
      e !db (Printf.sprintf "VACUUM SNAPSHOTS KEEPING LAST %d" (1 + Random.State.int rng 3))
    | 8 when wal ->
      incr reopens;
      Sqldb.Db.close_wal !db;
      db := fst (Sqldb.Db.open_wal ~path ())
    | 8 ->
      incr reopens;
      Sqldb.Backup.save !db ~path;
      db := Sqldb.Backup.load ~path
    | _ -> update ());
    check_all (Printf.sprintf "seed %d step %d" seed step) !db
  done;
  Alcotest.(check bool) "the history vacuumed and reopened" true (!vacuums > 0 && !reopens > 0);
  if wal then Sqldb.Db.close_wal !db

let model_tests =
  List.map
    (fun (seed, wal) ->
      Alcotest.test_case
        (Printf.sprintf "seed %d, %s" seed (if wal then "WAL recovery" else "backup round trips"))
        `Quick
        (fun () -> history ~seed ~wal ~steps:80))
    [ (1, true); (2, false); (3, true); (4, false); (5, true); (6, false) ]

let () = Alcotest.run "analyze" [ ("model", model_tests) ]
