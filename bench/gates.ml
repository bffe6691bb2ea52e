(* Regression gates (`--only gates`): the bounds a paper-figure run does
   not check.  One line per check; the process exits 1 if any failed.

   - scoped instrumentation: Qq_cpu charging a child scope costs within
     5% of the root-only baseline (min of 5);
   - plan-IR optimizer: a foldable Qq_cpu advances sql.opt_folds and
     sql.opt_invariant_hoists, returns the same table as optimize=off
     and is not slower (p50 of 5, on <= 1.05 x off);
   - AS OF read scaling: 4 reader domains beat 1 reader by >= 1.5x when
     every archive read sleeps its modeled latency outside all locks, so
     readers overlap their device waits (I/O overlap, not CPU
     parallelism: it holds on one core);
   - the Domain-parallel loop returns the sequential loop's table byte
     for byte on UW15, UW30 and UW60: CollateData, and
     AggregateDataInTable over Qq_agg and CollateDataIntoIntervals over
     Qq_int with their stripes evaluating by delta (at least one delta
     iteration), the latter against the naive loop (PRAGMA
     incremental=off);
   - no archive checksum failure during any of it.

   The heat-partition and EXPLAIN ANALYZE checks are exact and live in
   test/test_scope.ml and test/test_explain_analyze.ml. *)

module E = Sqldb.Engine
module R = Storage.Record
module Cost = Storage.Stats.Cost_model

let failures = ref 0

let check name ok detail =
  Printf.printf "%-4s %-44s %s\n%!" (if ok then "ok" else "FAIL") name detail;
  if not ok then incr failures

let time f =
  let t0 = Unix.gettimeofday () in
  f ();
  Unix.gettimeofday () -. t0

let reps = 5

let p50 samples =
  let a = Array.of_list samples in
  Array.sort compare a;
  a.(Array.length a / 2)

let fixture () =
  (Fixtures.get { Fixtures.uw = Tpch.Workload.uw30; snapshots = 8; native_lineitem_index = false })
    .Fixtures.ctx

(* --- scoped-instrumentation overhead ------------------------------------ *)

(* The Qq runs on the ctx's evaluation session: the baseline charges the
   root only, the scoped variant a child scope as well (one
   physical-equality test plus a pre-resolved chain walk). *)
let scope_overhead () =
  let ctx = fixture () in
  let run_in scope () =
    let prev = Sqldb.Db.scope ctx.Rql.eval in
    Sqldb.Db.set_scope ctx.Rql.eval scope;
    Fun.protect
      ~finally:(fun () -> Sqldb.Db.set_scope ctx.Rql.eval prev)
      (fun () ->
        ignore
          (Rql.aggregate_data_in_variable ctx ~qs:(Queries.qs_n 5) ~qq:Queries.qq_cpu
             ~table:"bench_scope" ~fn:"sum"))
  in
  let child = Obs.Scope.create "bench.gates" in
  let baseline = run_in Obs.Scope.root and scoped = run_in child in
  (* Warm both variants (covering-index build, plan and snapshot caches),
     then alternate measurements and keep the minimum: the low-noise
     estimator for a CPU-bound loop. *)
  baseline ();
  scoped ();
  let base_min = ref infinity and scope_min = ref infinity in
  for _ = 1 to reps do
    base_min := Float.min !base_min (time baseline);
    scope_min := Float.min !scope_min (time scoped)
  done;
  Obs.Scope.drop child;
  let ratio = !scope_min /. !base_min in
  check "scoped/root Qq_cpu, min of 5" (ratio <= 1.05)
    (Printf.sprintf "root %.4fs scoped %.4fs ratio %.3f (<= 1.05)" !base_min !scope_min ratio)

(* --- plan-IR optimizer -------------------------------------------------- *)

(* Qq_cpu with foldable constants: the multiplier, the concatenated type
   literal and the tautological conjunct are compile-time facts the
   optimizer removes.  Result-identical to Qq_cpu; the prepared Qq
   carries AS OF, so the folds are hoisted out of the snapshot loop. *)
let qq_cpu_foldable =
  "SELECT SUM(l_extendedprice * (1.0 + 0.0)) AS revenue FROM part, lineitem \
   WHERE p_partkey = l_partkey AND p_type = 'STANDARD' || ' POLISHED TIN' \
   AND 1 + 1 = 2"

let optimizer () =
  let ctx = fixture () in
  let set on =
    ignore (E.exec ctx.Rql.data (if on then "PRAGMA optimize = on" else "PRAGMA optimize = off"))
  in
  let workload () =
    ignore
      (Rql.aggregate_data_in_variable ctx ~qs:(Queries.qs_n 5) ~qq:qq_cpu_foldable
         ~table:"bench_opt" ~fn:"sum")
  in
  let result () =
    (E.exec ctx.Rql.meta "SELECT * FROM bench_opt ORDER BY 1").E.rows
    |> List.map (fun row -> Array.to_list (Array.map R.value_to_string row))
  in
  let c_folds = Obs.Metrics.counter "sql.opt_folds" in
  let c_hoists = Obs.Metrics.counter "sql.opt_invariant_hoists" in
  let folds0 = Obs.Metrics.Counter.get c_folds and hoists0 = Obs.Metrics.Counter.get c_hoists in
  (* Warm both settings and take the identity check from the warm runs. *)
  set true;
  workload ();
  let rows_on = result () in
  set false;
  workload ();
  let rows_off = result () in
  let folds = Obs.Metrics.Counter.get c_folds - folds0 in
  let hoists = Obs.Metrics.Counter.get c_hoists - hoists0 in
  let sample on =
    set on;
    time workload
  in
  (* Interleave the settings so slow drift (cache warming, CPU
     frequency) biases neither side. *)
  let pairs = List.init reps (fun _ -> let on = sample true in (on, sample false)) in
  set true;
  let p50_on = p50 (List.map fst pairs) and p50_off = p50 (List.map snd pairs) in
  let ratio = p50_on /. p50_off in
  check "sql.opt_folds advanced" (folds > 0) (Printf.sprintf "%d (> 0)" folds);
  check "sql.opt_invariant_hoists advanced" (hoists > 0) (Printf.sprintf "%d (> 0)" hoists);
  check "optimize on/off result tables identical" (rows_on = rows_off)
    (Printf.sprintf "%d rows" (List.length rows_on));
  check "foldable Qq_cpu on/off, p50 of 5" (ratio <= 1.05)
    (Printf.sprintf "on %.4fs off %.4fs ratio %.3f (<= 1.05)" p50_on p50_off ratio)

(* --- AS OF read scaling and the parallel RQL loop ----------------------- *)

let readers = 4
let rounds = 3
let domains = 4
let sf = 0.002
let latency_us = 1000.
let min_speedup = 1.5

let history uw ~snapshots =
  let ctx, _st, sids = Tpch.Workload.build_history ~sf ~uw ~snapshots () in
  (* a tiny snapshot cache keeps the readers archive-bound *)
  Retro.set_cache_pages (Sqldb.Db.retro_exn ctx.Rql.data) 2;
  (ctx, sids)

(* Each reader makes [rounds] passes over every snapshot on its own
   session, so work per domain is constant and throughput(N) /
   throughput(1) isolates the overlap win. *)
let read_throughput ctx sids ~readers ~rounds =
  let reader () =
    Sqldb.Session.with_session ctx.Rql.data (fun s ->
        for _ = 1 to rounds do
          List.iter
            (fun sid ->
              ignore
                (E.exec s
                   (Printf.sprintf "SELECT AS OF %d COUNT(*), SUM(o_totalprice) FROM orders" sid)))
            sids
        done)
  in
  let dt =
    time (fun () ->
        if readers = 1 then reader ()
        else List.iter Domain.join (List.init readers (fun _ -> Domain.spawn reader)))
  in
  float_of_int (readers * rounds * List.length sids) /. dt

(* Every archive read sleeps [latency_us] while [f] runs.  The cost
   model is process-wide, so it is restored afterwards: an experiment
   run after the gates would otherwise sleep on every archive read and
   report 4x the modeled io(s). *)
let with_real_reads f =
  let real0 = !Cost.real_read_latency and read_s0 = !Cost.ssd_read_s in
  Cost.real_read_latency := true;
  Cost.ssd_read_s := latency_us *. 1e-6;
  Fun.protect
    ~finally:(fun () ->
      Cost.real_read_latency := real0;
      Cost.ssd_read_s := read_s0)
    f

let as_of_scaling () =
  let ctx, sids = history Tpch.Workload.uw30 ~snapshots:8 in
  (* one untimed pass puts the SPT builds into neither measurement *)
  ignore (read_throughput ctx sids ~readers:1 ~rounds:1);
  let thr1 = read_throughput ctx sids ~readers:1 ~rounds in
  let thrn = read_throughput ctx sids ~readers ~rounds in
  let speedup = thrn /. thr1 in
  check
    (Printf.sprintf "AS OF %d readers / 1 reader" readers)
    (speedup >= min_speedup)
    (Printf.sprintf "%.1f vs %.1f q/s, %.2fx (>= %.1fx, SF %g, %gus reads)" thrn thr1 speedup
       min_speedup sf latency_us)

let parallel_rql uw =
  let ctx, _ = history uw ~snapshots:5 in
  let qs = "SELECT snap_id FROM SnapIds" in
  let qq = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_totalprice > 1000" in
  ignore (Rql.collate_data ctx ~qs ~qq ~table:"Cseq");
  ignore (Rql.collate_data ~domains ctx ~qs ~qq ~table:"Cpar");
  let rows table = List.map R.encode_row (E.query ctx.Rql.meta ("SELECT * FROM " ^ table)) in
  let seq = rows "Cseq" in
  check
    (Printf.sprintf "parallel CollateData = sequential (%s)" uw.Tpch.Workload.uname)
    (seq = rows "Cpar")
    (Printf.sprintf "%d rows, %d domains" (List.length seq) domains);
  ignore (E.exec ctx.Rql.data "PRAGMA incremental=on");
  let agg ?domains table =
    Rql.aggregate_data_in_table ?domains ctx ~qs ~qq:Queries.qq_agg ~table ~aggs:[ ("cn", "MAX") ]
  in
  ignore (agg "Aseq");
  let par = agg ~domains "Apar" in
  let seq = rows "Aseq" in
  let deltas =
    List.length
      (List.filter (fun (it : Rql.Iter_stats.iteration) -> it.eval = "delta") par.iterations)
  in
  check
    (Printf.sprintf "parallel AggregateDataInTable = sequential (%s)" uw.Tpch.Workload.uname)
    (seq = rows "Apar" && deltas > 0)
    (Printf.sprintf "%d rows, %d domains, %d delta iterations (> 0)" (List.length seq) domains
       deltas);
  (* the naive loop against delta-evaluated stripes *)
  let intervals ?domains table =
    Rql.collate_data_into_intervals ?domains ctx ~qs ~qq:Queries.qq_int ~table
  in
  ignore (E.exec ctx.Rql.data "PRAGMA incremental=off");
  ignore (intervals "Iseq");
  ignore (E.exec ctx.Rql.data "PRAGMA incremental=on");
  let par = intervals ~domains "Ipar" in
  let seq = rows "Iseq" in
  let deltas =
    List.length
      (List.filter (fun (it : Rql.Iter_stats.iteration) -> it.eval = "delta") par.iterations)
  in
  check
    (Printf.sprintf "parallel intervals = naive (%s)" uw.Tpch.Workload.uname)
    (seq = rows "Ipar" && deltas > 0)
    (Printf.sprintf "%d rows, %d domains, %d delta iterations (> 0)" (List.length seq) domains
       deltas)

let run () =
  Util.section "Gates: scope overhead, optimizer, AS OF read scaling, parallel RQL";
  let checksum_failures () = Obs.Scope.get Storage.Stats.c_checksum_failures in
  let cf0 = checksum_failures () in
  scope_overhead ();
  optimizer ();
  with_real_reads (fun () ->
      as_of_scaling ();
      List.iter parallel_rql Tpch.Workload.[ uw15; uw30; uw60 ]);
  let cf = checksum_failures () - cf0 in
  check "retro.checksum_failures" (cf = 0) (Printf.sprintf "%d (= 0)" cf);
  if !failures > 0 then begin
    Printf.printf "%d gate(s) failed\n%!" !failures;
    exit 1
  end
