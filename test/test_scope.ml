(* Scoped observability tests: histogram/table merge (the roll-up
   primitive), scope charging and roll-up, drop and reset lifecycle,
   the (table, snapshot) heat partition invariant, live progress +
   cooperative cancellation of RQL runs, event-log attribution, and
   Prometheus label escaping. *)

module M = Obs.Metrics
module S = Obs.Scope
module P = Obs.Progress
module E = Sqldb.Engine
module R = Storage.Record

(* Run [f] in a fresh child scope that is dropped afterwards, so tests
   do not leave scopes behind for each other. *)
let with_child ?parent name f =
  let s = S.create ?parent name in
  Fun.protect ~finally:(fun () -> S.drop s) (fun () -> f s)

(* Local value of counter [name] inside scope [s] (0 when the scope
   never charged it). *)
let local_counter s name =
  match List.assoc_opt name (S.metric_items s) with
  | Some (M.M_counter c) -> M.Counter.get c
  | Some _ -> Alcotest.failf "%s is not a counter in scope %s" name (S.scope_name s)
  | None -> 0

(* --- merge: the roll-up primitive -------------------------------------- *)

(* Property: recording a set of observations split across two
   histograms and merging them equals recording them all into one —
   exact counts and buckets, quantiles identical (merge is bucket-wise,
   so resolution is the bucket grid either way). *)
let merge_prop =
  let gen =
    QCheck.make
      ~print:QCheck.Print.(pair (list float) (list float))
      QCheck.Gen.(
        pair
          (list_size (int_bound 80) (map (fun x -> 1e-7 +. (x *. 10.)) (float_bound_exclusive 1.)))
          (list_size (int_bound 80) (map (fun x -> 1e-5 +. (x *. 1000.)) (float_bound_exclusive 1.))))
  in
  QCheck.Test.make ~name:"histogram merge = single histogram" ~count:100 gen
    (fun (xs, ys) ->
      let t1 = M.make_table () and t2 = M.make_table () and tr = M.make_table () in
      let h1 = M.histogram_in t1 "m" and h2 = M.histogram_in t2 "m" in
      let href = M.histogram_in tr "m" in
      List.iter (M.Histogram.observe h1) xs;
      List.iter (M.Histogram.observe h2) ys;
      List.iter (M.Histogram.observe href) (xs @ ys);
      let merged = M.histogram_in (M.make_table ()) "m" in
      M.Histogram.merge ~into:merged h1;
      M.Histogram.merge ~into:merged h2;
      M.Histogram.count merged = M.Histogram.count href
      && M.Histogram.cumulative_buckets merged = M.Histogram.cumulative_buckets href
      && Float.abs (M.Histogram.sum merged -. M.Histogram.sum href) <= 1e-9
      && M.Histogram.min_value merged = M.Histogram.min_value href
      && M.Histogram.max_value merged = M.Histogram.max_value href
      && List.for_all
           (fun q ->
             Float.abs (M.Histogram.quantile merged q -. M.Histogram.quantile href q)
             <= 1e-12)
           [ 0.5; 0.95; 0.99 ])

let merge_tests =
  [ QCheck_alcotest.to_alcotest merge_prop;
    Alcotest.test_case "table merge adds counters and gauges" `Quick (fun () ->
        let a = M.make_table () and b = M.make_table () in
        M.Counter.add (M.counter_in a "c") 3;
        M.Gauge.set (M.gauge_in a "g") 1.5;
        M.Counter.add (M.counter_in b "c") 4;
        M.Counter.add (M.counter_in b "only_b") 7;
        M.Gauge.add (M.gauge_in b "g") 2.;
        M.merge ~into:a b;
        Alcotest.(check int) "counter summed" 7 (M.Counter.get (M.counter_in a "c"));
        Alcotest.(check int) "new counter copied" 7 (M.Counter.get (M.counter_in a "only_b"));
        Alcotest.(check (float 1e-9)) "gauge summed" 3.5 (M.Gauge.get (M.gauge_in a "g")));
    Alcotest.test_case "merge rejects kind mismatch" `Quick (fun () ->
        let a = M.make_table () and b = M.make_table () in
        ignore (M.counter_in a "m");
        ignore (M.gauge_in b "m");
        Alcotest.check_raises "mismatch"
          (M.Error "metric m exists with another kind") (fun () -> M.merge ~into:a b)) ]

(* --- scope charging and roll-up ---------------------------------------- *)

let rollup_tests =
  [ Alcotest.test_case "increments charge the whole chain up to root" `Quick (fun () ->
        let h = S.counter "test.scope_rollup" in
        S.set h 0;
        with_child "parent" (fun parent ->
            with_child ~parent "leaf" (fun leaf ->
                S.with_scope leaf (fun () -> S.add h 5);
                S.with_scope parent (fun () -> S.add h 3);
                S.incr h (* root only: no scope active *);
                Alcotest.(check int) "root total" 9 (S.get h);
                Alcotest.(check int) "parent subtree-inclusive" 8
                  (local_counter parent "test.scope_rollup");
                Alcotest.(check int) "leaf local" 5
                  (local_counter leaf "test.scope_rollup"))));
    Alcotest.test_case "handle chain re-resolves when the scope changes" `Quick (fun () ->
        let h = S.counter "test.scope_switch" in
        S.set h 0;
        with_child "a" (fun a ->
            with_child "b" (fun b ->
                S.with_scope a (fun () -> S.incr h);
                S.with_scope b (fun () -> S.add h 2);
                S.with_scope a (fun () -> S.incr h);
                Alcotest.(check int) "a local" 2 (local_counter a "test.scope_switch");
                Alcotest.(check int) "b local" 2 (local_counter b "test.scope_switch");
                Alcotest.(check int) "root" 4 (S.get h))));
    Alcotest.test_case "gauges and histograms charge each domain's own scope" `Quick
      (fun () ->
        (* Two domains, each under its own child scope, charging the same
           handles at once: every scope's local totals must be exact. *)
        let g = S.gauge "test.scope_domains_gauge" in
        let h = S.histogram "test.scope_domains_hist" in
        let n = 200_000 in
        let started = Atomic.make 0 in
        let scopes = List.init 2 (fun i -> S.create (Printf.sprintf "domain%d" i)) in
        Fun.protect
          ~finally:(fun () -> List.iter S.drop scopes)
          (fun () ->
            let run sc () =
              Atomic.incr started;
              while Atomic.get started < 2 do Domain.cpu_relax () done;
              S.with_scope sc (fun () ->
                  for _ = 1 to n do
                    S.gauge_add g 1.0;
                    S.observe h 1e-3
                  done)
            in
            List.iter Domain.join (List.map (fun sc -> Domain.spawn (run sc)) scopes);
            List.iter
              (fun sc ->
                Alcotest.(check (float 0.)) "gauge local total" (float_of_int n)
                  (S.gauge_get_in sc g);
                match List.assoc_opt "test.scope_domains_hist" (S.metric_items sc) with
                | Some (M.M_histogram hs) ->
                  Alcotest.(check int) "histogram local count" n (M.Histogram.count hs)
                | _ -> Alcotest.fail "histogram missing from the scope")
              scopes)) ]

let lifecycle_tests =
  [ Alcotest.test_case "dropped child keeps totals in root and (dropped) bucket" `Quick
      (fun () ->
        let h = S.counter "test.scope_drop" in
        S.set h 0;
        with_child "session" (fun parent ->
            let child = S.create ~parent "worker" in
            S.with_scope child (fun () -> S.add h 6);
            S.drop child;
            Alcotest.(check bool) "child detached" false (S.is_live child);
            Alcotest.(check bool) "child gone from the tree" true
              (List.for_all (fun s -> s != child) (S.scopes ()));
            Alcotest.(check int) "root total survives" 6 (S.get h);
            Alcotest.(check int) "parent subtree total survives" 6
              (local_counter parent "test.scope_drop");
            let bucket =
              List.find
                (fun s ->
                  S.scope_name s = S.dropped_bucket_name && S.parent_id s = S.id parent)
                (S.scopes ())
            in
            Alcotest.(check int) "(dropped) holds the child's distribution" 6
              (local_counter bucket "test.scope_drop")));
    Alcotest.test_case "reset zeroes children in place (no stale sys_scopes rows)" `Quick
      (fun () ->
        let db = E.create ~snapshots:false () in
        let h = S.counter "test.scope_reset" in
        with_child "resettable" (fun child ->
            S.with_scope child (fun () -> S.add h 9);
            Alcotest.(check int) "charged" 9 (local_counter child "test.scope_reset");
            S.reset_all ();
            (* the scope survives the reset; its values are zero, not stale *)
            Alcotest.(check bool) "scope still in the tree" true
              (List.exists (fun s -> s == child) (S.scopes ()));
            Alcotest.(check int) "local zeroed" 0 (local_counter child "test.scope_reset");
            Alcotest.(check int) "root zeroed" 0 (S.get h);
            let rows =
              E.query db
                (Printf.sprintf
                   "SELECT value FROM sys_scopes WHERE scope_id = %d AND metric = \
                    'test.scope_reset'"
                   (S.id child))
            in
            match rows with
            | [ [| R.Real v |] ] -> Alcotest.(check (float 0.)) "sys_scopes zeroed" 0. v
            | [ [| R.Int v |] ] -> Alcotest.(check int) "sys_scopes zeroed" 0 v
            | _ -> Alcotest.failf "expected one zeroed row, got %d" (List.length rows))) ]

(* --- heat: per-(table, snapshot) attribution partitions page reads ----- *)

(* Build a small multi-snapshot database and run a retrospective query,
   then check the root heat matrix sums exactly to storage.page_reads —
   across current-state and AS OF reads, SPT builds, everything. *)
let make_snapshot_ctx () =
  let ctx = Rql.create () in
  let e sql = ignore (E.exec ctx.Rql.data sql) in
  e "CREATE TABLE t (a INTEGER, b TEXT)";
  for i = 1 to 40 do
    e (Printf.sprintf "INSERT INTO t VALUES (%d, 'row%d')" i i)
  done;
  ignore (Rql.declare_snapshot ctx);
  e "BEGIN";
  e "UPDATE t SET b = 'updated' WHERE a <= 10";
  ignore (Rql.declare_snapshot ctx);
  e "BEGIN";
  e "DELETE FROM t WHERE a > 35";
  ignore (Rql.declare_snapshot ctx);
  ctx

let heat_tests =
  [ Alcotest.test_case "root heat partitions storage.page_reads exactly" `Quick (fun () ->
        Obs.Scope.reset_all ();
        let ctx = make_snapshot_ctx () in
        ignore
          (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
             ~qq:"SELECT a, b, current_snapshot() AS sid FROM t" ~table:"R");
        ignore (E.exec ctx.Rql.data "SELECT AS OF 1 COUNT(a) FROM t");
        let total = S.page_reads_total () in
        Alcotest.(check bool) "work happened" true (total > 0);
        Alcotest.(check int) "root heat total = page_reads" total (S.heat_total S.root);
        (* per-device split matches the per-device counters *)
        let db_sum, pl_sum =
          List.fold_left
            (fun (d, p) (_, db, pl) -> (d + db, p + pl))
            (0, 0) (S.heat_items S.root)
        in
        Alcotest.(check int) "db split" (S.get Storage.Stats.c_db_page_reads) db_sum;
        Alcotest.(check int) "pagelog split" (S.get Storage.Stats.c_pagelog_reads) pl_sum;
        (* snapshot-attributed rows exist: the AS OF read and the RQL
           iterations charge cells labeled with their snapshot id *)
        Alcotest.(check bool) "snapshot-labeled cells" true
          (List.exists (fun ((_, snap), _, _) -> snap >= 1) (S.heat_items S.root));
        Alcotest.(check bool) "table-labeled cells" true
          (List.exists (fun ((tbl, _), _, _) -> tbl = "t") (S.heat_items S.root)));
    Alcotest.test_case "sys_heat root rows sum to storage.page_reads (SQL)" `Quick
      (fun () ->
        let ctx = make_snapshot_ctx () in
        let db = ctx.Rql.data in
        let sum_sql = "SELECT SUM(reads) FROM sys_heat WHERE scope_id = 0" in
        (* warm the catalog and plan caches so the measured run does no
           page reads of its own *)
        ignore (E.exec db sum_sql);
        let expected = S.page_reads_total () in
        let got = E.int_scalar db sum_sql in
        Alcotest.(check int) "cached sys_heat query reads no pages" expected
          (S.page_reads_total ());
        Alcotest.(check int) "SQL sum = page_reads" expected got);
    Alcotest.test_case "a child scope re-attributes a subset of root heat" `Quick
      (fun () ->
        let ctx = make_snapshot_ctx () in
        let db = ctx.Rql.data in
        with_child "session" (fun child ->
            Sqldb.Db.set_scope db child;
            Fun.protect ~finally:(fun () -> Sqldb.Db.set_scope db S.root) (fun () ->
                ignore (E.exec db "SELECT AS OF 2 COUNT(a) FROM t"));
            let child_total = S.heat_total child in
            Alcotest.(check bool) "child saw reads" true (child_total > 0);
            Alcotest.(check bool) "child is a subset of root" true
              (child_total <= S.heat_total S.root);
            Alcotest.(check int) "child heat = child page_reads counter"
              (local_counter child "storage.page_reads") child_total));
    Alcotest.test_case "RQL run under a child scope on the eval session" `Quick (fun () ->
        Obs.Scope.reset_all ();
        let ctx = make_snapshot_ctx () in
        (* a sequential Qq runs on ctx.eval, so that is where the scope
           that charges it is set, not on ctx.data *)
        with_child "rql" (fun child ->
            Sqldb.Db.set_scope ctx.Rql.eval child;
            Fun.protect ~finally:(fun () -> Sqldb.Db.set_scope ctx.Rql.eval S.root) (fun () ->
                ignore
                  (Rql.aggregate_data_in_variable ctx ~qs:"SELECT snap_id FROM SnapIds"
                     ~qq:"SELECT COUNT(a) FROM t" ~table:"H" ~fn:"sum"));
            Alcotest.(check bool) "child saw the loop's reads" true (S.heat_total child > 0);
            Alcotest.(check int) "child heat = child page_reads counter"
              (local_counter child "storage.page_reads") (S.heat_total child));
        Alcotest.(check int) "root heat total = page_reads" (S.page_reads_total ())
          (S.heat_total S.root);
        let sum_sql = "SELECT SUM(reads) FROM sys_heat WHERE scope_id = 0" in
        ignore (E.exec ctx.Rql.data sum_sql);
        let expected = S.page_reads_total () in
        Alcotest.(check int) "sys_heat scope 0 = live total" expected
          (E.int_scalar ctx.Rql.data sum_sql)) ]

(* --- progress and cancellation ----------------------------------------- *)

let progress_tests =
  [ Alcotest.test_case "a completed run reports done with full counts" `Quick (fun () ->
        let ctx = make_snapshot_ctx () in
        P.clear ();
        ignore
          (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
             ~qq:"SELECT a, current_snapshot() AS sid FROM t" ~table:"R");
        match P.runs () with
        | [ p ] ->
          Alcotest.(check string) "status" "done" (P.status_to_string p.P.pr_status);
          Alcotest.(check int) "iterations" 3 p.P.pr_done;
          Alcotest.(check int) "total" 3 p.P.pr_total;
          Alcotest.(check string) "mechanism" "CollateData" p.P.pr_mechanism;
          Alcotest.(check bool) "pages accumulated" true (p.P.pr_pages > 0);
          Alcotest.(check bool) "one weight per snapshot" true
            (Array.length p.P.pr_weights = 3)
        | runs -> Alcotest.failf "expected 1 run, got %d" (List.length runs));
    Alcotest.test_case "weights are 1 + each snapshot's delta pages" `Quick (fun () ->
        let ctx = make_snapshot_ctx () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        e "BEGIN";
        for i = 41 to 140 do
          e (Printf.sprintf "INSERT INTO t VALUES (%d, 'grown%d')" i i)
        done;
        ignore (Rql.declare_snapshot ctx);
        e "UPDATE t SET b = 'late' WHERE a % 7 = 0";
        (* the model: 1 + si_delta_pages of the quadratic analysis, and
           1 for an id it does not list *)
        let check label (ctx : Rql.ctx) sids =
          let snaps =
            (Analyze_model.analyze (Option.get ctx.Rql.data.Sqldb.Db.retro)).Retro.an_snapshots
          in
          let want sid =
            match Array.find_opt (fun si -> si.Retro.si_id = sid) snaps with
            | Some si -> 1. +. float_of_int si.Retro.si_delta_pages
            | None -> 1.
          in
          let got = Rql.snapshot_weights ctx.Rql.data sids in
          Alcotest.(check (array (float 0.))) label (Array.of_list (List.map want sids)) got;
          got
        in
        let before = check "before vacuum" ctx [ 1; 2; 3; 4 ] in
        Alcotest.(check bool) "deltas weigh more than 1" true
          (Array.for_all (fun w -> w > 1.) before);
        (* a run's progress entry carries exactly these weights *)
        P.clear ();
        ignore
          (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds WHERE snap_id >= 2"
             ~qq:"SELECT a FROM t" ~table:"W");
        (match P.runs () with
        | [ p ] ->
          Alcotest.(check (array (float 0.))) "run weights" (Array.sub before 1 3)
            p.P.pr_weights
        | runs -> Alcotest.failf "expected 1 run, got %d" (List.length runs));
        ignore (E.exec ctx.Rql.data "VACUUM SNAPSHOTS KEEPING LAST 2");
        let after = check "after vacuum, vacuumed and unknown ids" ctx [ 1; 3; 4; 0; 99 ] in
        Alcotest.(check (float 0.)) "a vacuumed id weighs 1" 1. after.(0);
        Alcotest.(check (array (float 0.))) "live weights survive the vacuum"
          (Array.sub before 2 2) (Array.sub after 1 2);
        let path = Filename.concat (Filename.get_temp_dir_name ()) "rql_scope_weights.ctx" in
        Rql.save ctx ~path;
        let reopened = Rql.load ~path in
        Sys.remove path;
        ignore (check "after .save/.open" reopened [ 2; 3; 4 ]));
    Alcotest.test_case "cancel mid-run stops within one iteration, consistently" `Quick
      (fun () ->
        let ctx = make_snapshot_ctx () in
        P.clear ();
        Obs.Eventlog.clear ();
        (* the Qq raises the flag while iteration 1 is executing; the
           loop must stop at the next iteration boundary *)
        E.register_fn ctx.Rql.data "request_cancel" (fun _ ->
            ignore (P.request_cancel ());
            R.Int 1);
        (try
           ignore
             (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
                ~qq:"SELECT a, request_cancel() AS rc FROM t" ~table:"R");
           Alcotest.fail "expected Rql.Cancelled"
         with Rql.Cancelled { mechanism; iterations_done; run_id = _ } ->
           Alcotest.(check string) "mechanism" "CollateData" mechanism;
           Alcotest.(check int) "stopped after one iteration" 1 iterations_done);
        (* the run is marked cancelled with an accurate done-count *)
        (match P.runs () with
        | [ p ] ->
          Alcotest.(check string) "status" "cancelled" (P.status_to_string p.P.pr_status);
          Alcotest.(check int) "done" 1 p.P.pr_done;
          Alcotest.(check int) "total" 3 p.P.pr_total
        | runs -> Alcotest.failf "expected 1 run, got %d" (List.length runs));
        (* both databases stay consistent *)
        (match E.exec ctx.Rql.data "PRAGMA integrity_check" with
        | { E.rows = [ [| R.Text "ok" |] ]; _ } -> ()
        | _ -> Alcotest.fail "data integrity_check not ok");
        (match E.exec ctx.Rql.meta "PRAGMA integrity_check" with
        | { E.rows = [ [| R.Text "ok" |] ]; _ } -> ()
        | _ -> Alcotest.fail "meta integrity_check not ok");
        (* the completed iteration's rows are durable in T *)
        Alcotest.(check int) "iteration 1 rows in T" 40
          (E.int_scalar ctx.Rql.meta "SELECT COUNT(a) FROM R");
        (* sys_progress reports it *)
        (match
           E.query ctx.Rql.meta
             "SELECT status, iterations_done, iterations_total FROM sys_progress"
         with
        | [ [| R.Text st; R.Int d; R.Int t |] ] ->
          Alcotest.(check string) "sys_progress status" "cancelled" st;
          Alcotest.(check int) "sys_progress done" 1 d;
          Alcotest.(check int) "sys_progress total" 3 t
        | rows -> Alcotest.failf "expected 1 sys_progress row, got %d" (List.length rows));
        (* ... and the event log carries the transition *)
        Alcotest.(check bool) "rql_progress event logged" true
          (List.exists
             (fun (e : Obs.Eventlog.event) ->
               e.Obs.Eventlog.ev_kind = "rql_progress"
               && List.assoc_opt "status" e.Obs.Eventlog.ev_fields
                  = Some (Obs.Json.Str "cancelled"))
             (Obs.Eventlog.events ())));
    Alcotest.test_case "cancelling a finished run is a no-op" `Quick (fun () ->
        let ctx = make_snapshot_ctx () in
        P.clear ();
        ignore
          (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
             ~qq:"SELECT a, current_snapshot() AS sid FROM t" ~table:"R");
        Alcotest.(check int) "nothing to flag" 0 (P.request_cancel ()));
    Alcotest.test_case "ETA drains to zero as iterations complete" `Quick (fun () ->
        let p = P.start ~total:4 ~mechanism:"CollateData" ~detail:"q" () in
        P.set_weights p [| 1.; 1.; 1.; 1. |];
        P.note_iteration p ~pages:10;
        P.note_iteration p ~pages:20;
        Alcotest.(check bool) "mid-run ETA positive" true (p.P.pr_eta >= 0.);
        P.note_iteration p ~pages:30;
        P.note_iteration p ~pages:40;
        P.finish p P.Done;
        Alcotest.(check (float 0.)) "final ETA" 0. p.P.pr_eta;
        Alcotest.(check int) "pages tracked" 40 p.P.pr_pages) ]

(* --- event-log attribution --------------------------------------------- *)

let eventlog_tests =
  [ Alcotest.test_case "events carry ambient scope and run ids" `Quick (fun () ->
        Obs.Eventlog.clear ();
        with_child "session" (fun child ->
            let p = P.start ~mechanism:"CollateData" ~detail:"q" () in
            P.with_active p (fun () ->
                S.with_scope child (fun () ->
                    Obs.Eventlog.log ~kind:"slow_query"
                      [ ("query", Obs.Json.Str "SELECT 1") ]));
            P.finish p P.Done;
            match Obs.Eventlog.events () with
            | [ e ] ->
              Alcotest.(check int) "scope id" (S.id child) e.Obs.Eventlog.ev_scope;
              Alcotest.(check int) "run id" p.P.pr_id e.Obs.Eventlog.ev_run;
              let json =
                Obs.Json.to_string (Obs.Eventlog.event_to_json e)
              in
              let has needle =
                let nl = String.length needle and hl = String.length json in
                let rec at i = i + nl <= hl && (String.sub json i nl = needle || at (i + 1)) in
                at 0
              in
              Alcotest.(check bool) "json has scope" true (has "\"scope\":");
              Alcotest.(check bool) "json has rql_run" true (has "\"rql_run\":")
            | es -> Alcotest.failf "expected 1 event, got %d" (List.length es)));
    Alcotest.test_case "slow-query events inherit the handle's scope" `Quick (fun () ->
        Obs.Eventlog.clear ();
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE s (x INTEGER)");
        with_child "conn" (fun child ->
            Sqldb.Db.set_scope db child;
            E.set_slow_query_threshold db (Some 0.);
            ignore (E.exec db "SELECT x FROM s");
            let slow =
              List.filter
                (fun (e : Obs.Eventlog.event) -> e.Obs.Eventlog.ev_kind = "slow_query")
                (Obs.Eventlog.events ())
            in
            Alcotest.(check bool) "logged" true (slow <> []);
            List.iter
              (fun (e : Obs.Eventlog.event) ->
                Alcotest.(check int) "scope attributed" (S.id child)
                  e.Obs.Eventlog.ev_scope)
              slow)) ]

(* --- Prometheus export ------------------------------------------------- *)

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  nl = 0 || at 0

let prometheus_tests =
  [ Alcotest.test_case "label values are escaped" `Quick (fun () ->
        let h = S.counter "test.prom_scoped" in
        S.set h 0;
        with_child "quo\"te\\back\nline" (fun child ->
            S.with_scope child (fun () -> S.incr h);
            let text = S.to_prometheus () in
            Alcotest.(check bool) "escaped scope label" true
              (contains ~needle:"scope=\"quo\\\"te\\\\back\\nline\"" text)));
    Alcotest.test_case "a child scope's sample follows the root sample in its family" `Quick
      (fun () ->
        let h = S.counter "test.prom_family" in
        S.set h 0;
        with_child "fam" (fun child ->
            S.with_scope child (fun () -> S.add h 4);
            let rec family = function
              | "# TYPE rql_test_prom_family counter" :: root :: scoped :: _ -> (root, scoped)
              | _ :: rest -> family rest
              | [] -> Alcotest.fail "family missing"
            in
            let root, scoped = family (String.split_on_char '\n' (S.to_prometheus ())) in
            Alcotest.(check string) "root sample" "rql_test_prom_family 4" root;
            Alcotest.(check string) "scope sample"
              (Printf.sprintf "rql_test_prom_family{scope=\"fam\",scope_id=\"%d\"} 4" (S.id child))
              scoped));
    Alcotest.test_case "metric names with . and - are sanitized" `Quick (fun () ->
        let h = S.counter "test.weird-name" in
        S.set h 3;
        let text = S.to_prometheus () in
        Alcotest.(check bool) "sanitized family name" true
          (contains ~needle:"rql_test_weird_name 3" text);
        Alcotest.(check bool) "no raw dot/dash names" false
          (contains ~needle:"test.weird-name" text));
    Alcotest.test_case "heat matrix exports as its own labeled family" `Quick (fun () ->
        let ctx = make_snapshot_ctx () in
        ignore (E.exec ctx.Rql.data "SELECT AS OF 1 COUNT(a) FROM t");
        let text = S.to_prometheus () in
        Alcotest.(check bool) "family present" true
          (contains ~needle:"rql_page_reads_heat{" text);
        Alcotest.(check bool) "table label" true (contains ~needle:"table=\"t\"" text);
        Alcotest.(check bool) "device label" true (contains ~needle:"device=\"" text)) ]

(* --- EXPLAIN PROFILE ------------------------------------------------------ *)

(* A profile runs its statement in a scope of its own and renders only
   the spans under its [statement] span: a second session scanning on
   another domain meanwhile adds neither counts nor spans. *)
let profile_tests =
  [ Alcotest.test_case "EXPLAIN PROFILE reports only its own statement" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER)");
        ignore
          (E.exec db
             ("INSERT INTO t VALUES "
             ^ String.concat ", " (List.init 200 (fun i -> Printf.sprintf "(%d)" i))));
        let other = Sqldb.Db.session db in
        let stop = Atomic.make false and scans = Atomic.make 0 in
        let busy =
          Domain.spawn (fun () ->
              while not (Atomic.get stop) do
                ignore (E.exec other "SELECT COUNT(*) FROM t");
                Atomic.incr scans
              done)
        in
        while Atomic.get scans = 0 do Domain.cpu_relax () done;
        let profiles =
          Fun.protect
            ~finally:(fun () ->
              Atomic.set stop true;
              Domain.join busy;
              Sqldb.Db.close_session other)
            (fun () ->
              List.init 20 (fun _ ->
                  List.map
                    (function [| R.Text l |] -> l | _ -> Alcotest.fail "profile row")
                    (E.exec db "EXPLAIN PROFILE SELECT a FROM t WHERE a = 7").E.rows))
        in
        let has l line = List.exists (fun x -> String.trim x = line) l in
        List.iter
          (fun l ->
            let text = String.concat "\n" l in
            Alcotest.(check bool) ("solo rows_scanned\n" ^ text) true
              (has l "sql.rows_scanned                     +200");
            Alcotest.(check bool) ("solo rows_returned\n" ^ text) true
              (has l "sql.rows_returned                    +1");
            Alcotest.(check bool) ("no foreign statement span\n" ^ text) false
              (List.exists (fun x -> String.starts_with ~prefix:"sql.stmt" (String.trim x)) l))
          profiles);
    Alcotest.test_case "profiles leave their counts in the session's (dropped) child" `Quick
      (fun () ->
        let db = E.create ~snapshots:false () in
        ignore (E.exec db "CREATE TABLE t (a INTEGER)");
        ignore
          (E.exec db
             ("INSERT INTO t VALUES "
             ^ String.concat ", " (List.init 200 (fun i -> Printf.sprintf "(%d)" i))));
        Sqldb.Db.with_session db (fun s ->
            for _ = 1 to 2 do
              ignore (E.exec s "EXPLAIN PROFILE SELECT a FROM t WHERE a = 7")
            done;
            let children =
              E.query db
                (Printf.sprintf
                   "SELECT name, value FROM sys_scopes WHERE parent = %d AND metric = \
                    'sql.rows_scanned'"
                   (S.id s.Sqldb.Db.scope))
            in
            match children with
            | [ [| R.Text name; v |] ] ->
              Alcotest.(check string) "one child, the bucket" S.dropped_bucket_name name;
              Alcotest.(check string) "both profiles' rows" "400" (R.value_to_string v)
            | _ -> Alcotest.failf "expected one child row, got %d" (List.length children))) ]

let () =
  Alcotest.run "scope"
    [ ("merge", merge_tests);
      ("rollup", rollup_tests);
      ("lifecycle", lifecycle_tests);
      ("heat", heat_tests);
      ("progress", progress_tests);
      ("eventlog", eventlog_tests);
      ("prometheus", prometheus_tests);
      ("profile", profile_tests) ]
