(* RQL benchmark entry point.

     rqlbench.exe --workload rql_scan|rql_compute|asof_mixed --seed N
                  --seconds S --trace 0|1 [--out FILE]

   Builds the workload's fixture from the seed (several times, for a
   median set-up time), runs the closed-loop measured phase for S
   seconds, verifies every op's output, and prints one JSON line last:
   the end-to-end metrics with --trace 0, the per-layer metrics with
   --trace 1.  The full report (environment, parameters, both metric
   sets, span summary) goes to --out.  See README.md. *)

module J = Obs.Json
module IS = Rql.Iter_stats

let setup_reps = 3
let micro_sid = 1 (* the oldest snapshot: its orders chain is all archived *)

type metric = { name : string; value : float; unit : string }

let m name unit value = { name; value = (if Float.is_finite value then value else 0.); unit }
let ms s = s *. 1e3
let ssd_ms () = !Storage.Stats.Cost_model.ssd_read_s *. 1e3

type outcome = {
  attempted : int;
  failed : int;
  checks : (string * bool) list;
  e2e : metric list; (* wall times at the reference machine speed *)
  e2e_raw : metric list; (* the same, as measured *)
  layer : metric list;
  params : (string * J.t) list;
}

(* Scale the end-to-end wall times to the reference machine speed, each
   by the calibration of the phase it was measured in: set-up times by
   [setup], op times by [run], round times by [rounds]. *)
let calibrated ~setup ~run ~rounds e2e =
  List.map
    (fun x ->
      match x.name with
      | "setup_s" -> { x with value = Calib.time setup x.value }
      | "ops_per_s" -> { x with value = Calib.rate run x.value }
      | "op_p50_ms" | "op_p90_ms" -> { x with value = Calib.time run x.value }
      | "commit_p50_ms" | "commit_p90_ms" -> { x with value = Calib.time rounds x.value }
      | _ -> x)
    e2e

let calib_params ~setup ~run =
  [ ("calib_reference_kernel_ms", J.Float Calib.reference_kernel_ms);
    ("calib_setup_kernel_ms", J.Float (Calib.kernel_ms setup));
    ("calib_run_kernel_ms", J.Float (Calib.kernel_ms run)) ]

let lat_metrics lats =
  let busy = List.fold_left ( +. ) 0. lats in
  [ m "ops_per_s" "1/s" (Util.ratio (float_of_int (List.length lats)) busy);
    m "op_p50_ms" "ms" (ms (Util.quantile 0.5 lats));
    m "op_p90_ms" "ms" (ms (Util.quantile 0.9 lats)) ]

let round_metrics (rounds : Fixture.round list) =
  let f g = List.map g rounds in
  [ m "commit_p50_ms" "ms" (ms (Util.quantile 0.5 (f (fun r -> r.Fixture.round_s))));
    m "commit_p90_ms" "ms" (ms (Util.quantile 0.9 (f (fun r -> r.Fixture.round_s)))) ]

(* Per-layer metrics of the kept set-up and of the commit rounds (the
   writer's in asof_mixed, the kept history's elsewhere). *)
let round_layer (fx : Fixture.t) (rounds : Fixture.round list) =
  let f g = List.map g rounds in
  let n = float_of_int (List.length rounds) in
  [ m "tpch.generate_s" "s" fx.Fixture.generate_s;
    m "tpch.history_round_ms" "ms"
      (ms (Util.median (List.map (fun r -> r.Fixture.round_s) fx.Fixture.rounds)));
    m "tpch.rf1_ms" "ms" (ms (Util.median (f (fun r -> r.Fixture.rf1_s))));
    m "tpch.rf2_ms" "ms" (ms (Util.median (f (fun r -> r.Fixture.rf2_s))));
    m "retro.declare_ms" "ms" (ms (Util.median (f (fun r -> r.Fixture.declare_s))));
    m "retro.cow_pages_per_commit" "count"
      (List.fold_left (fun a r -> a +. float_of_int r.Fixture.cow_pages) 0. rounds /. n);
    m "storage.page_writes_per_commit" "count"
      (List.fold_left (fun a r -> a +. float_of_int r.Fixture.page_writes) 0. rounds /. n) ]

(* Probes of the fixture after the measured phase: heap scan, decode,
   archive fetch and B+tree lookups (the last one may add an index). *)
let storage_layer ~seed (fx : Fixture.t) =
  let r = Micro.per_row fx.Fixture.ctx.Rql.data in
  let hit, miss = Micro.fetch fx.Fixture.ctx.Rql.data fx.Fixture.retro micro_sid in
  [ m "storage.heap_scan_ns_per_row" "ns" r.Micro.scan_ns;
    m "storage.decode_ns_per_row" "ns" r.Micro.decode_ns;
    m "storage.alloc_words_per_row" "words" r.Micro.alloc_words;
    m "retro.fetch_hit_us_per_page" "us" hit;
    m "retro.fetch_miss_us_per_page" "us" miss;
    m "storage.btree_lookup_us" "us" (Micro.btree_lookup_us ~seed fx) ]

let runs_of ops = List.filter_map (fun d -> d.Rql_ops.run) ops
let sum_iters (r : IS.run) f = List.fold_left (fun a it -> a +. f it) 0. r.IS.iterations
let sum_counters ks = List.fold_left Util.add_counters Util.no_counters ks

(* RQL-layer metrics over traced RQL ops: the workload's own, or the
   probe ops on a workload that runs none.  The covering-index metrics
   come from the probe ops when the given ops build no index. *)
let rql_layer (ops : Rql_ops.done_op list) ~(probes : Rql_ops.done_op list) =
  let per_op l f =
    let rs = runs_of l in
    List.fold_left (fun a r -> a +. f r) 0. rs /. float_of_int (max 1 (List.length rs))
  in
  let cold, hot =
    List.partition (fun it -> it.IS.cold) (List.concat_map (fun r -> r.IS.iterations) (runs_of ops))
  in
  let index_s r = sum_iters r (fun it -> it.IS.index_build_s) in
  let index_ops = if per_op ops index_s > 0. then ops else probes in
  let builds = Util.count (sum_counters (List.map (fun d -> d.Rql_ops.k) index_ops)) "sql.index_builds" in
  let reads its = Util.mean (List.map (fun it -> float_of_int it.IS.pagelog_reads) its) in
  [ m "core.qs_eval_ms" "ms" (ms (Util.mean (List.map (fun d -> d.Rql_ops.qs_s) ops)));
    m "core.iter_cold_ms" "ms" (ms (Util.mean (List.map Rql_ops.iter_cpu_s cold)));
    m "core.iter_hot_ms" "ms" (ms (Util.mean (List.map Rql_ops.iter_cpu_s hot)));
    m "core.loop_body_ms_per_op" "ms"
      (ms (per_op ops (fun r -> sum_iters r (fun it -> it.IS.udf_s) +. r.IS.finalize_s)));
    m "core.result_writes_per_op" "count"
      (per_op ops (fun r ->
           sum_iters r (fun it -> float_of_int (it.IS.udf_inserts + it.IS.udf_updates))));
    m "sql.query_eval_ms_per_op" "ms" (ms (per_op ops (fun r -> sum_iters r (fun it -> it.IS.query_eval_s))));
    m "sql.index_build_ms_per_op" "ms" (ms (per_op index_ops index_s));
    m "sql.index_builds_per_op" "count" (Util.ratio_i builds (List.length index_ops));
    m "retro.hot_cold_read_ratio" "ratio" (Util.ratio (reads hot) (reads cold)) ]

(* Ratios of the work counted over [n] ops. *)
let counter_layer (k : Util.counters) n =
  let c = Util.count k in
  let rate hits misses = Util.ratio_i (c hits) (c hits + c misses) in
  [ m "sql.plan_cache_hit_rate" "ratio" (rate "sql.plan_cache_hits" "sql.plan_cache_misses");
    m "sql.rows_scanned_per_returned" "ratio" (Util.ratio_i (c "sql.rows_scanned") (c "sql.rows_returned"));
    m "retro.maplog_scanned_per_spt" "count" (Util.ratio_i (c "retro.maplog_scanned") (c "sql.spt_builds"));
    m "retro.pagelog_reads_per_op" "count" (Util.ratio_i (c "storage.pagelog_reads") n);
    m "retro.snap_cache_hit_rate" "ratio" (rate "retro.snap_cache_hits" "retro.snap_cache_misses");
    m "storage.db_page_reads_per_op" "count" (Util.ratio_i (c "storage.db_page_reads") n) ]

(* Mean wall times of Sql_path calls: (parse, prepare, exec) seconds. *)
let sql_layer calls =
  let mean f = 1e6 *. Util.mean (List.map f calls) in
  [ m "sql.parse_us" "us" (mean (fun (p, _, _) -> p));
    m "sql.prepare_us" "us" (mean (fun (_, q, _) -> q));
    m "sql.exec_us" "us" (mean (fun (_, _, e) -> e)) ]

(* Exact work counts. *)
let work_layer (k : Util.counters) ~plans ~cow ~minor_words =
  let c name = float_of_int (Util.count k name) in
  [ m "work.pagelog_reads" "count" (c "storage.pagelog_reads");
    m "work.maplog_scanned" "count" (c "retro.maplog_scanned");
    m "work.rows_scanned" "count" (c "sql.rows_scanned");
    m "work.plans_built" "count" (c plans);
    m "work.cow_pages" "count" (float_of_int cow);
    m "work.minor_words" "words" minor_words ]

let cow_pages rounds = List.fold_left (fun a r -> a + r.Fixture.cow_pages) 0 rounds

let overhead_pct traced untraced =
  let p t = Util.median t in
  100. *. Util.ratio (p traced -. p untraced) (p untraced)

let setup_params ~snapshots setup_times =
  [ ("sf", J.Float Fixture.sf);
    ("update_workload", J.Str Fixture.uw.Tpch.Workload.uname);
    ("orders_per_round", J.Int Fixture.orders_per_round);
    ("history_snapshots", J.Int snapshots);
    ("setup_reps", J.Int setup_reps);
    ("setup_s_each", J.List (List.map (fun t -> J.Float t) setup_times)) ]

(* --- rql_scan / rql_compute ------------------------------------------- *)

let rql ~seed ~seconds ~trace (spec : Rql_ops.spec) =
  let setup_cal = Calib.phase () and run_cal = Calib.phase () in
  let fx, setup_times, all_rounds =
    Fixture.build_median ~calib:setup_cal ~reps:setup_reps ~seed
      ~snapshots:Rql_ops.history_snapshots ~orders_index:false
  in
  Gc.compact ();
  let ops, peak = Rql_ops.drive ~calib:run_cal ~seed ~seconds ~trace spec fx in
  ignore (Calib.checkpoint run_cal);
  let ctx = fx.Fixture.ctx in
  let wrong = Rql_ops.verify ctx ops in
  let parallel_ok =
    match ops with
    | d :: _ when spec.Rql_ops.parallel_check -> Rql_ops.parallel_identical ctx d.Rql_ops.op
    | _ -> true
  in
  let n = List.length ops in
  let pl_reads = List.fold_left (fun a d -> a + d.Rql_ops.pagelog_reads) 0 ops in
  let e2e =
    (m "setup_s" "s" (Util.median setup_times) :: lat_metrics (List.map (fun d -> d.Rql_ops.lat_s) ops))
    @ [ m "modeled_io_ms_per_op" "ms" (Util.ratio_i pl_reads n *. ssd_ms ()) ]
    @ round_metrics all_rounds
    @ [ m "peak_heap_mb" "MB" peak;
        m "archive_bytes_per_user_byte" "ratio"
          (Fixture.archive_bytes_per_user_byte fx fx.Fixture.rounds) ]
  in
  let layer =
    if not trace then []
    else begin
      let traced, untraced = List.partition (fun d -> d.Rql_ops.traced) ops in
      let lat l = List.map (fun d -> d.Rql_ops.lat_s) l in
      let probes = List.map (Rql_ops.exec_op ~traced:true fx) Rql_ops.probe_ops in
      (* each of the workload's Qq texts as a plain AS OF statement *)
      let kinds = List.sort_uniq compare (List.map (fun d -> d.Rql_ops.op.Rql_ops.kind) ops) in
      let calls =
        List.concat_map
          (fun kind ->
            List.init 3 (fun _ ->
                let _, p, q, e =
                  Sql_path.run ctx.Rql.data (Oracle.as_of_sql (Rql_ops.qq_of kind) micro_sid)
                in
                (p, q, e)))
          kinds
      in
      (* The first three traced ops are the same ops on every run with
         this seed (one of each rql_compute kind): their work repeats
         exactly. *)
      let first3 = List.filteri (fun i _ -> i < 3) traced in
      let unattributed (d : Rql_ops.done_op) =
        match d.Rql_ops.run with
        | Some r -> d.Rql_ops.lat_s -. sum_iters r Rql_ops.iter_cpu_s -. r.IS.finalize_s
        | None -> 0.
      in
      (m "env.kernel_ms" "ms" (Calib.kernel_ms run_cal) :: round_layer fx fx.Fixture.rounds)
      @ rql_layer traced ~probes
      @ sql_layer calls
      @ counter_layer (sum_counters (List.map (fun d -> d.Rql_ops.k) traced)) (List.length traced)
      @ [ m "retro.spt_build_us" "us"
            (1e6 *. Util.mean (List.concat_map (fun d -> d.Rql_ops.spt_s) traced));
          m "op.alloc_mb" "MB" (Util.mean (List.map (fun d -> d.Rql_ops.alloc_bytes) traced) /. 1e6);
          m "op.unattributed_ms_per_op" "ms" (ms (Util.mean (List.map unattributed traced)));
          m "obs.trace_overhead_pct" "%" (overhead_pct (lat traced) (lat untraced)) ]
      @ work_layer
          (sum_counters (List.map (fun d -> d.Rql_ops.k) first3))
          ~plans:"sql.plans_built" ~cow:(cow_pages fx.Fixture.rounds)
          ~minor_words:(List.fold_left (fun a d -> a +. d.Rql_ops.minor_words) 0. first3)
      @ storage_layer ~seed fx
    end
  in
  { attempted = n;
    failed = wrong;
    e2e_raw = e2e;
    checks = [ ("rql_results_match_naive_fold", wrong = 0); ("parallel_loop_identical", parallel_ok) ];
    e2e = calibrated ~setup:setup_cal ~run:run_cal ~rounds:setup_cal e2e;
    layer;
    params =
      setup_params ~snapshots:Rql_ops.history_snapshots setup_times
      @ calib_params ~setup:setup_cal ~run:run_cal
      @ [ ("snapshot_cache_pages", J.Int Retro.default_cache_pages);
          ("clients", J.Int 1);
          ("op_kinds",
           J.List
             (List.sort_uniq compare (List.map (fun d -> Rql_ops.kind_name d.Rql_ops.op.Rql_ops.kind) ops)
             |> List.map (fun s -> J.Str s)));
          ("snapshots_per_op",
           J.Int (match ops with d :: _ -> d.Rql_ops.op.Rql_ops.len | [] -> 0)) ] }

(* --- asof_mixed -------------------------------------------------------- *)

let asof_snapshots = 60

let asof ~seed ~seconds ~trace =
  (* One calibration for the whole run: the kernel cannot run inside
     the two-domain phase without competing with the workload, so the
     set-up checkpoints, taken minutes apart at most, stand in for it,
     with one more on each side of the measured phase. *)
  let cal = Calib.phase () in
  let fx, setup_times, _ =
    Fixture.build_median ~calib:cal ~reps:setup_reps ~seed ~snapshots:asof_snapshots
      ~orders_index:true
  in
  Gc.compact ();
  ignore (Calib.checkpoint cal);
  let r = Asof_mixed.drive ~seed ~seconds ~trace fx in
  ignore (Calib.checkpoint cal);
  let reads = r.Asof_mixed.reads and rounds = r.Asof_mixed.rounds in
  let n = List.length reads in
  let failed = List.length (List.filter (fun o -> not o.Asof_mixed.ok) reads) in
  let k = r.Asof_mixed.reader_k in
  let c = Util.count k in
  (* the measured writer rounds, or the kept history's rounds if the
     measured phase was too short for any *)
  let commit_rounds = if rounds = [] then fx.Fixture.rounds else rounds in
  let e2e =
    (m "setup_s" "s" (Util.median setup_times) :: lat_metrics (List.map (fun o -> o.Asof_mixed.lat_s) reads))
    @ [ m "modeled_io_ms_per_op" "ms" (Util.ratio_i (c "storage.pagelog_reads") n *. ssd_ms ()) ]
    @ round_metrics commit_rounds
    @ [ m "peak_heap_mb" "MB" r.Asof_mixed.peak_mb;
        m "archive_bytes_per_user_byte" "ratio"
          (Fixture.archive_bytes_per_user_byte fx commit_rounds) ]
  in
  let layer =
    if not trace then []
    else begin
      let traced, untraced = List.partition (fun o -> o.Asof_mixed.traced) reads in
      let mean f = Util.mean (List.map f traced) in
      let lat l = List.map (fun o -> o.Asof_mixed.lat_s) l in
      (* the reader runs no RQL: the probe ops measure that layer *)
      let probes = List.map (Rql_ops.exec_op ~traced:true fx) Rql_ops.probe_ops in
      (m "env.kernel_ms" "ms" (Calib.kernel_ms cal) :: round_layer fx commit_rounds)
      @ rql_layer probes ~probes
      @ sql_layer
          (List.map (fun o -> Asof_mixed.(o.parse_s, o.prepare_s, o.exec_s)) traced)
      @ counter_layer k n
      @ [ m "retro.spt_build_us" "us" (1e6 *. mean (fun o -> o.Asof_mixed.spt_s));
          m "op.alloc_mb" "MB" (mean (fun o -> o.Asof_mixed.alloc_bytes) /. 1e6);
          m "op.unattributed_ms_per_op" "ms"
            (ms (mean (fun o -> Asof_mixed.(o.lat_s -. o.parse_s -. o.prepare_s -. o.exec_s))));
          m "obs.trace_overhead_pct" "%" (overhead_pct (lat traced) (lat untraced)) ]
      @ work_layer k ~plans:"sql.plan_cache_misses" ~cow:(cow_pages commit_rounds)
          ~minor_words:(List.fold_left (fun a o -> a +. o.Asof_mixed.minor_words) 0. reads)
      @ storage_layer ~seed fx
    end
  in
  { attempted = n;
    failed;
    checks = [ ("point_lookups_match_live_window", failed = 0) ];
    e2e = calibrated ~setup:cal ~run:cal ~rounds:cal e2e;
    e2e_raw = e2e;
    layer;
    params =
      setup_params ~snapshots:asof_snapshots setup_times
      @ calib_params ~setup:cal ~run:cal
      @ [ ("snapshot_cache_pages", J.Int Asof_mixed.cache_pages);
          ("clients", J.Str "1 writer domain + 1 reader domain");
          ("orders_index", J.Str Fixture.orderkey_index);
          ("reader_newest_share", J.Float 0.5);
          ("reader_newest_snapshots", J.Int Asof_mixed.newest);
          ("writer_period_s", J.Float Asof_mixed.writer_period_s);
          ("writer_rounds", J.Int (List.length rounds));
          ("writer_max_late_s", J.Float r.Asof_mixed.writer_late_s) ] }

(* --- entry point -------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let out = ref "" and git_rev = ref "unknown" and src_digest = ref "" in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME rql_scan | rql_compute | asof_mixed");
      ("--seed", Arg.Set_int seed, "N input seed");
      ("--seconds", Arg.Set_float seconds, "S measured-phase length");
      ("--trace", Arg.Set_int trace, "0|1 per-layer traced run");
      ("--out", Arg.Set_string out, "FILE full JSON report");
      ("--git-rev", Arg.Set_string git_rev, "REV recorded in the report");
      ("--src-digest", Arg.Set_string src_digest, "HEX recorded in the report") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rqlbench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let traced = !trace = 1 in
  Span.enabled := traced;
  let seed = !seed and seconds = !seconds in
  let t0 = Util.now () in
  let o =
    match !workload with
    | "rql_scan" -> rql ~seed ~seconds ~trace:traced Rql_ops.scan
    | "rql_compute" -> rql ~seed ~seconds ~trace:traced Rql_ops.compute
    | "asof_mixed" -> asof ~seed ~seconds ~trace:traced
    | w ->
      prerr_endline ("unknown workload: " ^ w);
      exit 2
  in
  let checksum_failures = Obs.Scope.get Storage.Stats.c_checksum_failures in
  let checks =
    o.checks
    @ [ ("retro.checksum_failures_zero", checksum_failures = 0);
        ("real_read_latency_off", not !Storage.Stats.Cost_model.real_read_latency) ]
  in
  let correct = List.for_all snd checks && o.failed = 0 in
  let metrics = if traced then o.layer else o.e2e in
  let mjson l = J.Obj (List.map (fun x -> (x.name, J.Obj [ ("value", J.Float x.value); ("unit", J.Str x.unit) ])) l) in
  let cm = Storage.Stats.Cost_model.(
    J.Obj
      [ ("ssd_read_s", J.Float !ssd_read_s);
        ("ssd_write_s", J.Float !ssd_write_s);
        ("fsync_s", J.Float !fsync_s);
        ("real_read_latency", J.Bool !real_read_latency) ])
  in
  List.iter (fun x -> Printf.eprintf "%-34s %14.4f %s\n" x.name x.value x.unit) metrics;
  Printf.eprintf "cost model (modeled time, never added to wall time): ssd_read_s=%g ssd_write_s=%g fsync_s=%g\n"
    !Storage.Stats.Cost_model.ssd_read_s !Storage.Stats.Cost_model.ssd_write_s
    !Storage.Stats.Cost_model.fsync_s;
  List.iter (fun (k, ok) -> if not ok then Printf.eprintf "CHECK FAILED: %s\n" k) checks;
  if !out <> "" then begin
    let report =
      J.Obj
        [ ("workload", J.Str !workload);
          ("seed", J.Int seed);
          ("seconds", J.Float seconds);
          ("trace", J.Int !trace);
          ("env",
           J.Obj
             [ ("git_rev", J.Str !git_rev);
               ("source_digest", J.Str !src_digest);
               ("nproc", J.Int (Domain.recommended_domain_count ()));
               ("ocaml_version", J.Str Sys.ocaml_version);
               ("word_size", J.Int Sys.word_size) ]);
          ("params", J.Obj o.params);
          ("cost_model", cm);
          ("attempted", J.Int o.attempted);
          ("failed", J.Int o.failed);
          ("error_rate", J.Float (Util.ratio_i o.failed (max 1 o.attempted)));
          ("checks", J.Obj (List.map (fun (k, v) -> (k, J.Bool v)) checks));
          ("end_to_end", mjson o.e2e);
          ("end_to_end_raw", mjson o.e2e_raw);
          ("per_layer", mjson o.layer);
          ("spans",
           J.Obj
             (List.map
                (fun (name, (cnt, tot, self)) ->
                  (name, J.Obj [ ("count", J.Int cnt); ("total_s", J.Float tot); ("self_s", J.Float self) ]))
                (Span.summary ())));
          ("run_wall_s", J.Float (Util.now () -. t0)) ]
    in
    J.write_file !out report;
    if traced then Span.write_chrome (Filename.remove_extension !out ^ ".trace.json")
  end;
  print_endline
    (J.to_string
       (J.Obj
          [ ("correct", J.Bool correct);
            ("attempted", J.Int o.attempted);
            ("failed", J.Int o.failed);
            ("metrics", mjson metrics) ]))
