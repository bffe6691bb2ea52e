(* Interactive RQL shell.

   A REPL over an RQL context: SQL statements run against the
   snapshottable data database; lines prefixed with "@meta" run against
   the non-snapshottable database that holds SnapIds and result tables
   (where the RQL UDFs are registered).  Dot-commands manage snapshots
   and inspection; the single [commands] table below is both the
   dispatcher and the .help text, so the two cannot drift apart.

     dune exec bin/rql_shell.exe            empty database
     dune exec bin/rql_shell.exe -- --tpch 0.002 --snapshots 5

   Introspection is also available in SQL: the sys_ virtual tables
   (sys_metrics, sys_snapshots, ...) and ANALYZE ARCHIVE work in any
   SELECT context, and EXPLAIN PROFILE <select> runs a statement with
   tracing forced on and prints the span tree plus counter deltas. *)

module R = Storage.Record
module E = Sqldb.Engine

let print_result (res : E.result) =
  if Array.length res.E.columns > 0 then begin
    print_endline (String.concat " | " (Array.to_list res.E.columns));
    List.iter
      (fun row ->
        print_endline
          (String.concat " | " (Array.to_list (Array.map R.value_to_string row))))
      res.E.rows;
    Printf.printf "(%d rows)\n" (List.length res.E.rows)
  end
  else begin
    (match res.E.snapshot with
    | Some sid -> Printf.printf "declared snapshot %d\n" sid
    | None -> ());
    if res.E.rows_affected > 0 then Printf.printf "(%d rows affected)\n" res.E.rows_affected
  end

(* Catalog tables plus the sys_ virtual tables (always queryable). *)
let list_tables db =
  let cat = Sqldb.Db.catalog db in
  List.iter print_endline (List.sort compare (Sqldb.Catalog.table_names cat));
  List.iter print_endline (Sqldb.Systables.names ())

(* --- dot-command table ------------------------------------------------- *)

type command = {
  cname : string; (* the dot-word; dispatch is an exact match on it *)
  cargs : string; (* argument synopsis, for .help only *)
  chelp : string;
  crun : ctx_ref:Rql.ctx ref -> args:string -> unit;
}

(* Filled below; a forward reference so .help can render the table it
   lives in. *)
let commands : command list ref = ref []

let print_help () =
  List.iter
    (fun c ->
      Printf.printf "  %-24s %s\n"
        (if c.cargs = "" then c.cname else c.cname ^ " " ^ c.cargs)
        c.chelp)
    !commands;
  print_endline
    "\n\
     SQL goes to the data database; prefix with @meta for the SnapIds/result database.\n\
     Introspection in SQL: SELECT ... FROM sys_metrics | sys_histograms | sys_spans |\n\
     sys_snapshots | sys_cache | sys_tables | sys_timeseries | sys_plans | sys_scopes |\n\
     sys_heat | sys_progress; ANALYZE ARCHIVE;\n\
     EXPLAIN [QUERY PLAN] <select> — show the compiled physical plan (access paths,\n\
     join strategies, temp b-trees); EXPLAIN PROFILE <select> — run with tracing and\n\
     print span tree + counter deltas; EXPLAIN ANALYZE <select> — run with per-operator\n\
     instrumentation and print the plan annotated with actual rows/loops/time/pages;\n\
     EXPLAIN LINT <stmt> — static diagnostics as rows\n\
     (same analysis as .lint, without executing the statement).\n\
     Statement statistics aggregate per fingerprint in sys_statements (.statements);\n\
     .slowlog logs statements over a threshold to the structured event log (sys_events).\n\
     RQL mechanisms are UDFs on @meta, e.g.:\n\
     @meta SELECT CollateData(snap_id, 'SELECT ... current_snapshot() ...', 'T') FROM SnapIds;"

(* The process-wide (root scope) storage and Retro counters. *)
let run_stats (ctx : Rql.ctx) =
  List.iter
    (fun (name, m) ->
      match m with
      | Obs.Metrics.M_counter c
        when String.starts_with ~prefix:"storage." name
             || String.starts_with ~prefix:"retro." name ->
        Printf.printf "%s=%d\n" name (Obs.Metrics.Counter.get c)
      | _ -> ())
    (Obs.Metrics.sorted_items ());
  match Sqldb.Db.(ctx.Rql.data.retro) with
  | Some retro ->
    Printf.printf "snapshots=%d pagelog=%d pages (%.1f MB) maplog=%d entries\n"
      (Retro.snapshot_count retro)
      (Retro.Pagelog.length retro.Retro.pagelog)
      (float_of_int (Retro.pagelog_size_bytes retro) /. 1e6)
      (Retro.maplog_length retro)
  | None -> ()

let run_metrics args =
  match String.split_on_char ' ' (String.trim args) |> List.filter (( <> ) "") with
  | [] -> Fmt.pr "%a@." Obs.Metrics.pp ()
  | [ "prom" ] -> print_string (Obs.Scope.to_prometheus ())
  | [ "prom"; path ] ->
    Obs.Scope.write_prometheus ~path;
    Printf.printf "wrote Prometheus exposition to %s\n" path
  | _ -> print_endline "usage: .metrics [prom [PATH]]"

let run_profile args =
  match String.trim args with
  | "on" ->
    Obs.Trace.set_enabled true;
    print_endline "profiling on (spans are being recorded; .trace dump PATH to export)"
  | "off" ->
    Obs.Trace.set_enabled false;
    print_endline "profiling off"
  | "" ->
    Printf.printf "profiling is %s (%d spans recorded)\n"
      (if Obs.Trace.is_enabled () then "on" else "off")
      (List.length (Obs.Trace.spans ()))
  | _ -> print_endline "usage: .profile [on|off]"

(* Top statements by total time, via the sys_statements virtual table
   (the registry is process-wide, so either database sees the same rows;
   we query the data one to keep its own plan/statement accounting). *)
let run_statements db =
  print_result
    (E.exec db
       "SELECT fingerprint, calls, rows, total_s, max_s, plan_hits, query \
        FROM sys_statements ORDER BY total_s DESC, fingerprint LIMIT 20")

let run_slowlog ctx args =
  let db = ctx.Rql.data in
  match String.split_on_char ' ' (String.trim args) |> List.filter (( <> ) "") with
  | [ "on" ] ->
    E.set_slow_query_threshold db (Some 0.1);
    print_endline "slow-query log on (threshold 100 ms)"
  | [ "on"; ms ] -> (
    match float_of_string_opt ms with
    | Some ms when ms >= 0. ->
      E.set_slow_query_threshold db (Some (ms /. 1e3));
      Printf.printf "slow-query log on (threshold %g ms)\n" ms
    | Some _ | None -> print_endline "usage: .slowlog [on [MS] | off]")
  | [ "off" ] ->
    E.set_slow_query_threshold db None;
    print_endline "slow-query log off"
  | [] ->
    (match E.slow_query_threshold db with
    | Some thr -> Printf.printf "slow-query log on (threshold %g ms)\n" (thr *. 1e3)
    | None -> print_endline "slow-query log off");
    let slow =
      List.filter
        (fun (e : Obs.Eventlog.event) -> e.Obs.Eventlog.ev_kind = "slow_query")
        (Obs.Eventlog.events ())
    in
    List.iter
      (fun e -> print_endline (Obs.Json.to_string (Obs.Eventlog.event_to_json e)))
      slow;
    Printf.printf "(%d slow-query events)\n" (List.length slow)
  | _ -> print_endline "usage: .slowlog [on [MS] | off]"

(* One line per retained RQL run, newest last (same rows as
   sys_progress). *)
let run_progress () =
  let runs = Obs.Progress.runs () in
  if runs = [] then print_endline "no RQL runs recorded"
  else
    List.iter
      (fun (p : Obs.Progress.t) ->
        let total =
          if p.Obs.Progress.pr_total > 0 then string_of_int p.Obs.Progress.pr_total
          else "?"
        in
        Printf.printf "run %d [%s] %s: %d/%s iterations, %d pages, %.3fs elapsed%s%s\n"
          p.Obs.Progress.pr_id
          (Obs.Progress.status_to_string p.Obs.Progress.pr_status)
          p.Obs.Progress.pr_mechanism p.Obs.Progress.pr_done total
          p.Obs.Progress.pr_pages p.Obs.Progress.pr_elapsed
          (if p.Obs.Progress.pr_status = Obs.Progress.Running && p.Obs.Progress.pr_eta > 0.
           then Printf.sprintf ", ~%.3fs left" p.Obs.Progress.pr_eta
           else "")
          (if p.Obs.Progress.pr_cancel && p.Obs.Progress.pr_status = Obs.Progress.Running
           then " (cancel requested)"
           else ""))
      runs

let run_cancel args =
  let flag id = Obs.Progress.request_cancel ?id () in
  match String.trim args with
  | "" -> (
    match flag None with
    | 0 -> print_endline "no running RQL run to cancel"
    | n -> Printf.printf "cancel requested for %d run%s (takes effect within one iteration)\n"
             n (if n = 1 then "" else "s"))
  | s -> (
    match int_of_string_opt s with
    | None -> print_endline "usage: .cancel [RUN_ID]"
    | Some id -> (
      match flag (Some id) with
      | 0 -> Printf.printf "run %d is not running (or unknown)\n" id
      | _ -> Printf.printf "cancel requested for run %d (takes effect within one iteration)\n" id))

let run_trace ctx args =
  match String.split_on_char ' ' (String.trim args) |> List.filter (( <> ) "") with
  | "dump" :: path :: _ ->
    Rql.flush_traces ctx;
    Obs.Trace.dump ~path;
    Printf.printf "wrote %d spans to %s (load in chrome://tracing or Perfetto)\n"
      (List.length (Obs.Trace.spans ())) path
  | _ -> print_endline "usage: .trace dump PATH"

let () =
  let quit ~ctx_ref:_ ~args:_ = raise Exit in
  commands :=
    [ { cname = ".snapshot"; cargs = "[name]";
        chelp = "COMMIT WITH SNAPSHOT + record in SnapIds";
        crun =
          (fun ~ctx_ref ~args ->
            let name = String.trim args in
            let sid = Rql.declare_snapshot ~name !ctx_ref in
            Printf.printf "declared snapshot %d%s\n" sid
              (if name = "" then "" else " (" ^ name ^ ")")) };
      { cname = ".snapshots"; cargs = ""; chelp = "list SnapIds";
        crun =
          (fun ~ctx_ref ~args:_ ->
            print_result (E.exec !ctx_ref.Rql.meta "SELECT * FROM SnapIds")) };
      { cname = ".tables"; cargs = "[@meta]";
        chelp = "list tables (catalog + sys_ virtual tables)";
        crun =
          (fun ~ctx_ref ~args ->
            match String.trim args with
            | "" -> list_tables !ctx_ref.Rql.data
            | "@meta" -> list_tables !ctx_ref.Rql.meta
            | _ -> print_endline "usage: .tables [@meta]") };
      { cname = ".stats"; cargs = ""; chelp = "storage/Retro counters";
        crun = (fun ~ctx_ref ~args:_ -> run_stats !ctx_ref) };
      { cname = ".metrics"; cargs = "[prom [PATH]]";
        chelp = "metrics registry; prom = Prometheus text exposition (to stdout or PATH)";
        crun = (fun ~ctx_ref:_ ~args -> run_metrics args) };
      { cname = ".plans"; cargs = "[@meta]";
        chelp = "plan-cache statistics incl. delta-safe plan count (sys_plans)";
        crun =
          (fun ~ctx_ref ~args ->
            let db =
              match String.trim args with
              | "@meta" -> !ctx_ref.Rql.meta
              | _ -> !ctx_ref.Rql.data
            in
            print_result (E.exec db "SELECT * FROM sys_plans")) };
      { cname = ".lint"; cargs = "[@meta] SQL";
        chelp = "static analysis only: print diagnostics without executing";
        crun =
          (fun ~ctx_ref ~args ->
            let sql = String.trim args in
            let db, sql =
              if String.length sql >= 5 && String.sub sql 0 5 = "@meta" then
                (!ctx_ref.Rql.meta, String.trim (String.sub sql 5 (String.length sql - 5)))
              else (!ctx_ref.Rql.data, sql)
            in
            if sql = "" then print_endline "usage: .lint [@meta] SQL"
            else
              match E.analyze db sql with
              | [] -> print_endline "ok"
              | diags -> List.iter (fun d -> print_endline (Sqldb.Diag.render d)) diags) };
      { cname = ".integrity"; cargs = ""; chelp = "run the on-disk integrity checker";
        crun =
          (fun ~ctx_ref ~args:_ ->
            match
              Sqldb.Integrity.check !ctx_ref.Rql.data @ Sqldb.Integrity.check !ctx_ref.Rql.meta
            with
            | [] -> print_endline "ok"
            | problems -> List.iter (fun p -> print_endline ("PROBLEM: " ^ p)) problems) };
      { cname = ".wal"; cargs = "[sync]";
        chelp = "write-ahead log status; sync = flush+fsync the pending tail";
        crun =
          (fun ~ctx_ref ~args ->
            let db = !ctx_ref.Rql.data in
            match (String.trim args, Sqldb.Db.wal_status db) with
            | _, None -> print_endline "no WAL attached (start the shell with --wal PATH)"
            | "sync", Some _ ->
              Sqldb.Db.sync_wal db;
              print_endline "synced"
            | "", Some s ->
              Printf.printf
                "wal %s: group_commit=%d appends=%d bytes=%d fsyncs=%d pending=%d \
                 since_checkpoint=%d bytes\n"
                s.Storage.Wal.st_path s.Storage.Wal.st_group_commit s.Storage.Wal.st_appends
                s.Storage.Wal.st_bytes s.Storage.Wal.st_fsyncs s.Storage.Wal.st_pending_bytes
                s.Storage.Wal.st_since_checkpoint
            | _, Some _ -> print_endline "usage: .wal [sync]") };
      { cname = ".checkpoint"; cargs = "";
        chelp = "materialize the WAL into a durable image and truncate it";
        crun =
          (fun ~ctx_ref ~args:_ ->
            let db = !ctx_ref.Rql.data in
            match Sqldb.Db.wal db with
            | None -> print_endline "no WAL attached (start the shell with --wal PATH)"
            | Some _ ->
              let seq, dropped = Sqldb.Db.checkpoint db in
              Printf.printf "checkpoint %d: truncated %d WAL bytes\n" seq dropped) };
      { cname = ".statements"; cargs = "";
        chelp = "top statements by total time (per-fingerprint, sys_statements)";
        crun = (fun ~ctx_ref ~args:_ -> run_statements !ctx_ref.Rql.data) };
      { cname = ".slowlog"; cargs = "[on [MS] | off]";
        chelp = "slow-query log: set/clear the threshold, or print logged events";
        crun = (fun ~ctx_ref ~args -> run_slowlog !ctx_ref args) };
      { cname = ".sessions"; cargs = "[@meta]";
        chelp = "live sessions of the data (or @meta) database (sys_sessions)";
        crun =
          (fun ~ctx_ref ~args ->
            let db =
              match String.trim args with
              | "@meta" -> !ctx_ref.Rql.meta
              | _ -> !ctx_ref.Rql.data
            in
            print_result
              (E.exec db
                 "SELECT session_id, prepared, plans, hits, misses, scope_id, current \
                  FROM sys_sessions ORDER BY session_id")) };
      { cname = ".progress"; cargs = "";
        chelp = "live + recent RQL runs (iterations, pages, ETA; sys_progress)";
        crun = (fun ~ctx_ref:_ ~args:_ -> run_progress ()) };
      { cname = ".cancel"; cargs = "[RUN_ID]";
        chelp = "request cooperative cancellation of a running RQL run (all, or one id)";
        crun = (fun ~ctx_ref:_ ~args -> run_cancel args) };
      { cname = ".profile"; cargs = "[on|off]"; chelp = "enable/disable span tracing";
        crun = (fun ~ctx_ref:_ ~args -> run_profile args) };
      { cname = ".trace"; cargs = "dump PATH"; chelp = "write collected spans as Chrome trace JSON";
        crun = (fun ~ctx_ref ~args -> run_trace !ctx_ref args) };
      { cname = ".save"; cargs = "PATH"; chelp = "save both databases to a backup file";
        crun =
          (fun ~ctx_ref ~args ->
            let path = String.trim args in
            Rql.save !ctx_ref ~path;
            Printf.printf "saved to %s\n" path) };
      { cname = ".open"; cargs = "PATH"; chelp = "replace the session with a saved backup";
        crun =
          (fun ~ctx_ref ~args ->
            let path = String.trim args in
            ctx_ref := Rql.load ~path;
            Printf.printf "opened %s\n" path) };
      { cname = ".help"; cargs = ""; chelp = "this text";
        crun = (fun ~ctx_ref:_ ~args:_ -> print_help ()) };
      { cname = ".quit"; cargs = ""; chelp = "exit"; crun = quit };
      { cname = ".exit"; cargs = ""; chelp = "exit"; crun = quit } ]

let run_line ctx_ref line =
  let line = String.trim line in
  if line = "" then ()
  else if line.[0] = '.' then begin
    let word, args =
      match String.index_opt line ' ' with
      | Some i -> (String.sub line 0 i, String.sub line i (String.length line - i))
      | None -> (line, "")
    in
    match List.find_opt (fun c -> c.cname = word) !commands with
    | Some c -> c.crun ~ctx_ref ~args
    | None -> Printf.printf "unknown command %s (.help for the list)\n" word
  end
  else if String.length line >= 5 && String.sub line 0 5 = "@meta" then
    print_result
      (E.exec_script !ctx_ref.Rql.meta (String.sub line 5 (String.length line - 5)))
  else print_result (E.exec_script !ctx_ref.Rql.data line)

let repl ctx =
  let ctx_ref = ref ctx in
  print_endline "RQL shell — .help for commands, .quit to exit";
  (try
     while true do
       print_string "rql> ";
       flush stdout;
       match In_channel.input_line stdin with
       | None -> raise Exit
       | Some line -> (
         try run_line ctx_ref line with
         | E.Error msg | Rql.Error msg -> Printf.printf "error: %s\n" msg
         | Rql.Cancelled { mechanism; iterations_done; run_id } ->
           Printf.printf "run %d (%s) cancelled after %d iteration%s (.progress for details)\n"
             run_id mechanism iterations_done
             (if iterations_done = 1 then "" else "s")
         | Rql.Monoid.Not_supported msg -> Printf.printf "error: %s\n" msg)
     done
   with Exit -> ());
  print_endline "bye"

open Cmdliner

let tpch_sf =
  let doc = "Pre-load a TPC-H database at the given scale factor." in
  Arg.(value & opt (some float) None & info [ "tpch" ] ~docv:"SF" ~doc)

let snapshots =
  let doc = "With --tpch, run this many UW30 refresh+snapshot rounds." in
  Arg.(value & opt int 0 & info [ "snapshots" ] ~docv:"N" ~doc)

let wal_path =
  let doc =
    "Open the data database against a write-ahead log at $(docv): recover it if the \
     file exists (replaying committed transactions and snapshots, discarding a torn \
     tail), create it otherwise.  Commits and snapshot declarations are then durable."
  in
  Arg.(value & opt (some string) None & info [ "wal" ] ~docv:"PATH" ~doc)

let group_commit =
  let doc = "With --wal, batch this many commits per modeled fsync (group commit)." in
  Arg.(value & opt int 1 & info [ "group-commit" ] ~docv:"N" ~doc)

let checkpoint_bytes =
  let doc =
    "With --wal, auto-checkpoint after the log grows past $(docv) bytes (0 = only \
     explicit .checkpoint / CHECKPOINT statements; same knob as PRAGMA \
     checkpoint_threshold)."
  in
  Arg.(value & opt int 0 & info [ "checkpoint-bytes" ] ~docv:"BYTES" ~doc)

(* Open (or recover) the WAL-backed data database and print the
   recovery report the durability contract promises on open. *)
let open_wal_data ~group_commit path =
  match Sqldb.Db.open_wal ~group_commit ~path () with
  | db, None ->
    Printf.printf "created WAL-backed database at %s\n" path;
    db
  | db, Some r ->
    let rep = r.Sqldb.Db.rec_report in
    Printf.printf "recovered %s: %d commits, %d snapshots replayed (%d of %d bytes valid)\n"
      path rep.Storage.Wal.rep_commits r.Sqldb.Db.rec_snapshots
      rep.Storage.Wal.rep_valid_bytes rep.Storage.Wal.rep_total_bytes;
    (match rep.Storage.Wal.rep_checkpoint with
    | Some seq -> Printf.printf "  restored checkpoint image %d, replayed the suffix\n" seq
    | None -> ());
    if rep.Storage.Wal.rep_torn then
      print_endline "  torn tail discarded (incomplete final record)";
    if rep.Storage.Wal.rep_corrupt then
      print_endline "  corrupt tail discarded (checksum mismatch)";
    (match r.Sqldb.Db.rec_damaged with
    | [] -> ()
    | ds ->
      Printf.printf "  damaged snapshots (corrupt archive blocks): %s\n"
        (String.concat ", " (List.map string_of_int ds)));
    db

let main tpch snapshots wal group_commit checkpoint_bytes =
  let ctx =
    match wal with
    | Some path -> Rql.create ~data:(open_wal_data ~group_commit path) ()
    | None -> Rql.create ()
  in
  if checkpoint_bytes > 0 then
    Sqldb.Db.set_checkpoint_threshold ctx.Rql.data checkpoint_bytes;
  (match tpch with
  | Some sf ->
    Printf.printf "generating TPC-H at SF %g...\n%!" sf;
    let st = Tpch.Dbgen.generate ctx.Rql.data ~sf in
    if snapshots > 0 then begin
      Printf.printf "running %d UW30 refresh rounds...\n%!" snapshots;
      ignore (Tpch.Workload.run ctx st ~uw:Tpch.Workload.uw30 ~snapshots)
    end
  | None -> ());
  repl ctx;
  Sqldb.Db.close_wal ctx.Rql.data

let cmd =
  let doc = "interactive shell for the RQL retrospective query system" in
  Cmd.v (Cmd.info "rql_shell" ~doc)
    Term.(const main $ tpch_sf $ snapshots $ wal_path $ group_commit $ checkpoint_bytes)

let () = exit (Cmd.eval cmd)
