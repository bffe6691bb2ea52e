(* Session-oriented engine tests: per-connection session state over a
   shared core, Domain-parallel AS OF readers checked against a
   sequential oracle, and the parallel RQL snapshot loop checked
   byte-identical to the sequential one over the UW fixture. *)

module R = Storage.Record
module E = Sqldb.Engine
module S = Sqldb.Session
module IS = Rql.Iter_stats

let value = Alcotest.testable R.pp_value R.equal_value
let row = Alcotest.(list value)

let rows_of res = List.map Array.to_list res.E.rows
let q db sql = rows_of (E.exec db sql)

(* --- session lifecycle over a shared core ------------------------------ *)

let lifecycle =
  [ Alcotest.test_case "sessions share tables and catalog with the root" `Quick (fun () ->
        let db = Sqldb.Db.create () in
        ignore (E.exec db "CREATE TABLE t (k INTEGER, v TEXT)");
        ignore (E.exec db "INSERT INTO t VALUES (1,'a'), (2,'b')");
        S.with_session db (fun s ->
            Alcotest.(check (list row)) "reads committed data"
              [ [ R.Int 1; R.Text "a" ]; [ R.Int 2; R.Text "b" ] ]
              (q s "SELECT * FROM t ORDER BY k");
            ignore (E.exec s "INSERT INTO t VALUES (3,'c')"));
        Alcotest.(check int) "write visible on root" 3
          (match E.scalar db "SELECT COUNT(*) FROM t" with R.Int n -> n | _ -> -1));
    Alcotest.test_case "session ids are distinct; close unregisters" `Quick (fun () ->
        let db = Sqldb.Db.create () in
        let a = S.create db and b = S.create db in
        Alcotest.(check bool) "distinct ids" true (S.id a <> S.id b);
        Alcotest.(check int) "three live sessions" 3 (List.length (S.all db));
        S.close a;
        Alcotest.(check int) "two after close" 2 (List.length (S.all db));
        S.close a (* idempotent *);
        Alcotest.(check int) "still two" 2 (List.length (S.all db));
        S.close b);
    Alcotest.test_case "prepared statements and plan cache are per-session" `Quick (fun () ->
        let db = Sqldb.Db.create () in
        ignore (E.exec db "CREATE TABLE t (k INTEGER)");
        S.with_session db (fun s ->
            let p = E.prepare s "SELECT k FROM t" in
            ignore (E.exec_prepared p);
            Alcotest.(check int) "session prepared one" 1 s.Sqldb.Db.prepared_count;
            Alcotest.(check int) "root prepared none" 0 db.Sqldb.Db.prepared_count));
    Alcotest.test_case "sys_sessions lists every live session" `Quick (fun () ->
        let db = Sqldb.Db.create () in
        S.with_session db (fun s ->
            ignore s;
            let ids =
              List.map
                (function [ R.Int id ] -> id | _ -> -1)
                (q db "SELECT session_id FROM sys_sessions ORDER BY session_id")
            in
            Alcotest.(check (list int)) "root + derived"
              (List.map S.id (S.all db) |> List.sort compare)
              ids));
    Alcotest.test_case "explicit transaction is core-owned: second BEGIN errors" `Quick
      (fun () ->
        let db = Sqldb.Db.create () in
        ignore (E.exec db "CREATE TABLE t (k INTEGER)");
        S.with_session db (fun s ->
            ignore (E.exec db "BEGIN");
            Alcotest.check_raises "nested begin rejected"
              (E.Error "transaction already open") (fun () ->
                ignore (E.exec s "BEGIN"));
            ignore (E.exec db "COMMIT"))) ]

(* --- Domain-parallel AS OF readers vs a sequential oracle -------------- *)

(* Build the UW history once; every reader session re-runs the same
   AS OF aggregate per snapshot and must reproduce the oracle exactly. *)
let parallel_asof =
  [ Alcotest.test_case "4 parallel reader sessions match the sequential oracle" `Quick
      (fun () ->
        let ctx, _st, sids =
          Tpch.Workload.build_history ~sf:0.002 ~uw:Tpch.Workload.uw30 ~snapshots:6 ()
        in
        let db = ctx.Rql.data in
        let query sid =
          Printf.sprintf
            "SELECT AS OF %d COUNT(*), SUM(o_totalprice) FROM orders" sid
        in
        let oracle = List.map (fun sid -> (sid, q db (query sid))) sids in
        let readers = 4 in
        let results = Array.make readers [] in
        let doms =
          List.init readers (fun w ->
              Domain.spawn (fun () ->
                  S.with_session db (fun s ->
                      results.(w) <- List.map (fun sid -> (sid, q s (query sid))) sids)))
        in
        List.iter Domain.join doms;
        Array.iteri
          (fun w got ->
            List.iter2
              (fun (sid, want) (sid', have) ->
                Alcotest.(check int) "same sid" sid sid';
                Alcotest.(check (list row))
                  (Printf.sprintf "reader %d, snapshot %d" w sid)
                  want have)
              oracle got)
          results) ]

(* --- parallel RQL loop vs the sequential loop --------------------------- *)

let sorted_table ctx table =
  List.sort compare (q ctx.Rql.meta (Printf.sprintf "SELECT * FROM %s" table))

let parallel_rql =
  [ Alcotest.test_case "parallel CollateData is byte-identical to sequential" `Quick
      (fun () ->
        let ctx, _st, _ =
          Tpch.Workload.build_history ~sf:0.002 ~uw:Tpch.Workload.uw30 ~snapshots:6 ()
        in
        let qs = "SELECT snap_id FROM SnapIds" in
        let qq = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 1000" in
        let seq = Rql.collate_data ctx ~qs ~qq ~table:"Cs" in
        let par = Rql.collate_data ~domains:4 ctx ~qs ~qq ~table:"Cp" in
        Alcotest.(check int) "same row count" seq.IS.result_rows par.IS.result_rows;
        Alcotest.(check (list row)) "same rows" (sorted_table ctx "Cs")
          (sorted_table ctx "Cp");
        Alcotest.(check (list int)) "same snapshot order"
          (List.map (fun it -> it.IS.snap_id) seq.IS.iterations)
          (List.map (fun it -> it.IS.snap_id) par.IS.iterations));
    Alcotest.test_case "parallel AggTable and intervals match sequential" `Quick (fun () ->
        let ctx, _st, _ =
          Tpch.Workload.build_history ~sf:0.002 ~uw:Tpch.Workload.uw30 ~snapshots:5 ()
        in
        let qs = "SELECT snap_id FROM SnapIds" in
        ignore
          (Rql.aggregate_data_in_table ctx ~qs
             ~qq:"SELECT o_orderstatus, COUNT(*) AS c FROM orders GROUP BY o_orderstatus"
             ~table:"As" ~aggs:[ ("c", "sum") ]);
        ignore
          (Rql.aggregate_data_in_table ~domains:3 ctx ~qs
             ~qq:"SELECT o_orderstatus, COUNT(*) AS c FROM orders GROUP BY o_orderstatus"
             ~table:"Ap" ~aggs:[ ("c", "sum") ]);
        Alcotest.(check (list row)) "agg rows" (sorted_table ctx "As")
          (sorted_table ctx "Ap");
        ignore
          (Rql.collate_data_into_intervals ctx ~qs
             ~qq:"SELECT o_orderkey FROM orders WHERE o_totalprice > 50000" ~table:"Is");
        ignore
          (Rql.collate_data_into_intervals ~domains:4 ctx ~qs
             ~qq:"SELECT o_orderkey FROM orders WHERE o_totalprice > 50000" ~table:"Ip");
        (* Intervals are order-sensitive: ordered application must make
           even the unsorted tables identical. *)
        Alcotest.(check (list row)) "interval rows (raw order)"
          (q ctx.Rql.meta "SELECT * FROM Is")
          (q ctx.Rql.meta "SELECT * FROM Ip"));
    Alcotest.test_case "parallel run attributes archive reads to iterations" `Quick
      (fun () ->
        let ctx, _st, _ =
          Tpch.Workload.build_history ~sf:0.002 ~uw:Tpch.Workload.uw30 ~snapshots:5 ()
        in
        let run =
          Rql.collate_data ~domains:4 ctx ~qs:"SELECT snap_id FROM SnapIds"
            ~qq:"SELECT o_orderkey FROM orders" ~table:"T"
        in
        let reads =
          List.fold_left (fun a it -> a + it.IS.pagelog_reads) 0 run.IS.iterations
        in
        Alcotest.(check bool)
          (Printf.sprintf "archive reads counted (%d)" reads)
          true (reads > 0);
        List.iter
          (fun (it : IS.iteration) ->
            Alcotest.(check bool) "io_s >= 0" true (it.IS.io_s >= 0.))
          run.IS.iterations);
    Alcotest.test_case "a failing striped run raises and releases its stripes" `Quick (fun () ->
        (* Six snapshots of t; at snapshot 3 it holds two rows, which
           AggregateDataInVariable rejects as it applies them.  From
           snapshot 4 on, u exists, so a Qq over u fails in a stripe's
           evaluation of snapshots 1-3.  Every failing run must return
           with its stripes joined and their sessions closed. *)
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        e "CREATE TABLE t (x INTEGER)";
        e "INSERT INTO t VALUES (1)";
        for sid = 1 to 6 do
          if sid > 1 then e "BEGIN";
          if sid = 3 then e "INSERT INTO t VALUES (2)";
          if sid = 4 then begin
            e "DELETE FROM t WHERE x = 2";
            e "CREATE TABLE u (y INTEGER)"
          end;
          ignore (Rql.declare_snapshot ctx)
        done;
        let sessions () = List.length (q ctx.Rql.data "SELECT session_id FROM sys_sessions") in
        let scopes () = List.length (Obs.Scope.scopes ()) in
        let run ?(qs = "SELECT snap_id FROM SnapIds") qq =
          Rql.aggregate_data_in_variable ~domains:2 ctx ~qs ~qq ~table:"V" ~fn:"SUM"
        in
        (* The first dropped session scope creates the "(dropped)" one. *)
        ignore (run "SELECT COUNT(*) FROM t");
        let sessions0 = sessions () and scopes0 = scopes () in
        let fails ?(qs = "SELECT snap_id FROM SnapIds") label qq ~raised =
          (match run ~qs qq with
          | _ -> Alcotest.failf "%s: the run succeeded" label
          | exception e -> Alcotest.(check bool) (label ^ ": raised") true (raised e));
          Alcotest.(check int) (label ^ ": sessions") sessions0 (sessions ());
          Alcotest.(check int) (label ^ ": scopes") scopes0 (scopes ());
          match List.rev (Obs.Progress.runs ()) with
          | pg :: _ ->
            Alcotest.(check string) (label ^ ": progress")
              (Obs.Progress.status_to_string Obs.Progress.Failed)
              (Obs.Progress.status_to_string pg.Obs.Progress.pr_status)
          | [] -> Alcotest.failf "%s: no progress row" label
        in
        let rql_error = function Rql.Error _ -> true | _ -> false in
        fails "two rows at snapshot 3" "SELECT x FROM t" ~raised:rql_error;
        fails "a stripe's evaluation" "SELECT COUNT(*) FROM u" ~raised:(function
          | E.Error _ -> true
          | _ -> false);
        (* Snapshot 3 first, and slow: meanwhile stripe 1 evaluates
           snapshots 1 and 4 (the loop's 2nd and 4th) and then waits for
           room, since the ring holds 2k = 4 and nothing has been taken
           yet.  Applying snapshot 3 fails; the stop must wake the
           waiting stripe. *)
        E.register_fn ctx.Rql.data "pause" (function
          | [| R.Int 3 |] ->
            Unix.sleepf 0.2;
            R.Int 0
          | _ -> R.Int 0);
        fails "a stripe waiting for room"
          ~qs:"SELECT snap_id FROM SnapIds ORDER BY snap_id <> 3, snap_id"
          "SELECT x FROM t WHERE pause(current_snapshot()) = 0" ~raised:rql_error) ]

(* --- one accounting path for both loops ----------------------------------- *)

let c_folds = Obs.Metrics.counter "sql.opt_folds"

(* A small three-snapshot context for the loop-accounting checks. *)
let small_ctx () =
  let ctx = Rql.create () in
  let e sql = ignore (E.exec ctx.Rql.data sql) in
  e "CREATE TABLE t (x INTEGER)";
  e "INSERT INTO t VALUES (1), (2), (3)";
  ignore (Rql.declare_snapshot ctx);
  e "BEGIN";
  e "INSERT INTO t VALUES (4)";
  ignore (Rql.declare_snapshot ctx);
  e "BEGIN";
  e "DELETE FROM t WHERE x = 1";
  ignore (Rql.declare_snapshot ctx);
  ctx

let accounting =
  [ Alcotest.test_case "closed sessions drop their metric scope" `Quick (fun () ->
        let ctx = small_ctx () in
        let run () =
          ignore
            (Rql.collate_data ~domains:2 ctx ~qs:"SELECT snap_id FROM SnapIds"
               ~qq:"SELECT x FROM t" ~table:"R")
        in
        run ();
        let live = List.length (Obs.Scope.scopes ()) in
        for _ = 1 to 5 do run () done;
        Alcotest.(check int) "live scopes after 5 parallel runs" live
          (List.length (Obs.Scope.scopes ()));
        (* Dropping folds a session's totals away without touching the
           root's; closing twice is harmless. *)
        let s = S.create ctx.Rql.data in
        ignore (E.exec s "SELECT AS OF 1 COUNT(*) FROM t");
        let root () =
          List.map Obs.Scope.get
            [ Storage.Stats.c_db_page_reads; Storage.Stats.c_pagelog_reads; Obs.Scope.c_page_reads ]
        in
        let before = root () in
        S.close s;
        S.close s;
        Alcotest.(check bool) "scope dropped" false (Obs.Scope.is_live (S.scope s));
        Alcotest.(check (list int)) "root totals unchanged" before (root ()));
    Alcotest.test_case "both loops follow PRAGMA optimize on the data handle" `Quick
      (fun () ->
        let ctx = small_ctx () in
        let folds ?domains () =
          let f0 = Obs.Metrics.Counter.get c_folds in
          ignore
            (Rql.collate_data ?domains ctx ~qs:"SELECT snap_id FROM SnapIds"
               ~qq:"SELECT x + (1 + 1) AS y FROM t WHERE 1 = 1" ~table:"F");
          Obs.Metrics.Counter.get c_folds - f0
        in
        ignore (E.exec ctx.Rql.data "PRAGMA optimize = off");
        Alcotest.(check int) "sequential, optimize=off" 0 (folds ());
        Alcotest.(check int) "two domains, optimize=off" 0 (folds ~domains:2 ());
        ignore (E.exec ctx.Rql.data "PRAGMA optimize = on");
        Alcotest.(check bool) "sequential, optimize=on folds" true (folds () > 0);
        Alcotest.(check bool) "two domains, optimize=on folds" true (folds ~domains:2 () > 0));
    Alcotest.test_case "parallel and sequential loops account iterations alike" `Quick
      (fun () ->
        let ctx, _st, _ =
          Tpch.Workload.build_history ~sf:0.002 ~uw:Tpch.Workload.uw30 ~snapshots:5 ()
        in
        let qs = "SELECT snap_id FROM SnapIds" in
        let qq = "SELECT o_orderkey FROM orders WHERE o_totalprice > 50000" in
        let seq = Rql.collate_data_into_intervals ctx ~qs ~qq ~table:"Is" in
        let par = Rql.collate_data_into_intervals ~domains:2 ctx ~qs ~qq ~table:"Ip" in
        let per f (r : IS.run) = List.map f r.IS.iterations in
        let sum f r = List.fold_left ( + ) 0 (per f r) in
        Alcotest.(check (list int)) "udf_rows" (per (fun it -> it.IS.udf_rows) seq)
          (per (fun it -> it.IS.udf_rows) par);
        Alcotest.(check (list int)) "udf_inserts" (per (fun it -> it.IS.udf_inserts) seq)
          (per (fun it -> it.IS.udf_inserts) par);
        Alcotest.(check (list int)) "udf_updates" (per (fun it -> it.IS.udf_updates) seq)
          (per (fun it -> it.IS.udf_updates) par);
        Alcotest.(check int) "total spt_entries"
          (sum (fun it -> it.IS.spt_entries) seq)
          (sum (fun it -> it.IS.spt_entries) par);
        let spt_s = List.fold_left (fun a it -> a +. it.IS.spt_build_s) 0. par.IS.iterations in
        Alcotest.(check bool) (Printf.sprintf "parallel spt_build_s > 0 (%g)" spt_s) true
          (spt_s > 0.)) ]

let () =
  Alcotest.run "session"
    [ ("lifecycle", lifecycle);
      ("parallel-asof", parallel_asof);
      ("parallel-rql", parallel_rql);
      ("accounting", accounting) ]
