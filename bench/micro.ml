(* Bechamel micro-benchmarks for the primitive operations underlying
   the experiments: row codec (full and projected decode), slotted-page
   insert, B+tree insert and lookup, SPT construction, snapshot page
   fetch, page checksum, Qq parsing and rewriting.  One Test.make per
   primitive, all in one executable. *)

open Bechamel
open Toolkit

module R = Storage.Record

let sample_row : R.row =
  [| R.Int 42; R.Text "Customer#000000042"; R.Real 3141.59; R.Null; R.Text "1995-03-15" |]

let encoded = R.encode_row sample_row

let test_encode =
  Test.make ~name:"record.encode_row" (Staged.stage (fun () -> ignore (R.encode_row sample_row)))

let test_decode =
  Test.make ~name:"record.decode_row" (Staged.stage (fun () -> ignore (R.decode_row encoded)))

(* The scan path: one column of the row, decoded in place. *)
let test_decode_cols =
  let b = Bytes.of_string encoded and len = String.length encoded in
  let first_col = R.decode_cols [| true |] in
  Test.make ~name:"record.decode_cols (1 of 5 columns)"
    (Staged.stage (fun () -> ignore (first_col b ~off:0 ~len)))

let test_page_insert =
  let page = Storage.Page.create Storage.Page.Heap_page in
  Test.make ~name:"page.insert+delete"
    (Staged.stage (fun () ->
         match Storage.Page.insert page encoded with
         | Some slot -> ignore (Storage.Page.delete page slot)
         | None -> Storage.Page.init page Storage.Page.Heap_page))

(* A pre-filled B+tree for lookups and (churning) inserts. *)
let btree_fixture =
  lazy
    (let pager = Storage.Pager.create () in
     let tree = Storage.Txn.with_txn pager (fun txn -> Storage.Btree.create txn) in
     Storage.Txn.with_txn pager (fun txn ->
         for i = 1 to 20_000 do
           Storage.Btree.insert txn tree [| R.Int ((i * 7919) mod 20_000) |] i
         done);
     (pager, tree))

let test_btree_lookup =
  Test.make ~name:"btree.lookup (20k entries)"
    (Staged.stage
       (let counter = ref 0 in
        fun () ->
          let pager, tree = Lazy.force btree_fixture in
          incr counter;
          Storage.Btree.lookup (Storage.Pager.read pager) tree
            [| R.Int (!counter mod 20_000) |]
            ~f:(fun _ -> ())))

let test_btree_insert =
  Test.make ~name:"btree.insert+delete (20k entries)"
    (Staged.stage
       (let counter = ref 0 in
        fun () ->
          let pager, tree = Lazy.force btree_fixture in
          incr counter;
          let key = [| R.Int (20_000 + (!counter mod 1000)) |] in
          Storage.Txn.with_txn pager (fun txn ->
              Storage.Btree.insert txn tree key 999_999;
              ignore (Storage.Btree.delete txn tree key 999_999))))

(* A small Retro history for SPT construction and snapshot reads. *)
let retro_fixture =
  lazy
    (let pager = Storage.Pager.create () in
     let retro = Retro.attach pager in
     let heap = Storage.Txn.with_txn pager (fun txn -> Storage.Heap.create txn) in
     for _ = 1 to 50 do
       Storage.Txn.with_txn pager (fun txn ->
           for _ = 1 to 50 do
             ignore (Storage.Heap.insert txn heap (String.make 200 'x'))
           done);
       ignore (Retro.declare retro)
     done;
     (retro, heap))

let test_spt_build =
  Test.make ~name:"retro.build_spt (50-snapshot history)"
    (Staged.stage (fun () ->
         let retro, _ = Lazy.force retro_fixture in
         ignore (Retro.build_spt retro 10)))

let test_snapshot_read =
  Test.make ~name:"retro snapshot heap scan"
    (Staged.stage
       (let spt = lazy (Retro.build_spt (fst (Lazy.force retro_fixture)) 10) in
        fun () ->
          let retro, heap = Lazy.force retro_fixture in
          let n = ref 0 in
          Storage.Heap.iter_spans (Retro.read_ctx retro (Lazy.force spt)) heap
            ~f:(fun _ _ _ _ -> incr n)))

(* Every archive miss and page commit checksums one page. *)
let test_crc32 =
  let page = Bytes.init Storage.Page.size (fun i -> Char.chr (i * 7 land 0xff)) in
  Test.make ~name:"crc32 (4 KiB page)" (Staged.stage (fun () -> ignore (Storage.Crc32.bytes page)))

let test_parse =
  Test.make ~name:"sql.parse (Qq_agg)"
    (Staged.stage (fun () -> ignore (Sqldb.Parser.parse_one Queries.qq_agg)))

let tests =
  [ test_encode; test_decode; test_decode_cols; test_page_insert; test_btree_lookup; test_btree_insert;
    test_spt_build; test_snapshot_read; test_crc32; test_parse ]

(* --- EXPLAIN ANALYZE smoke (bench --analyze) ---------------------------- *)

module E = Sqldb.Engine

(* Seed small fixtures, EXPLAIN ANALYZE one statement per plan shape
   (scan / filter / join / agg), then an analyzed RQL run; each analysis
   document is recorded for the --json output so CI can assert on the
   per-operator actuals. *)
let run_analyze () =
  Util.section "EXPLAIN ANALYZE: per-operator actuals on seeded fixtures";
  let ctx = Rql.create () in
  let db = ctx.Rql.data in
  ignore (E.exec db "CREATE TABLE t (a INTEGER, b INTEGER)");
  ignore (E.exec db "CREATE TABLE u (a INTEGER, c INTEGER)");
  ignore (E.exec db "BEGIN");
  for i = 1 to 200 do
    ignore (E.exec db (Printf.sprintf "INSERT INTO t VALUES (%d, %d)" i (i mod 10)))
  done;
  for i = 1 to 50 do
    ignore (E.exec db (Printf.sprintf "INSERT INTO u VALUES (%d, %d)" i (i * 2)))
  done;
  ignore (E.exec db "COMMIT");
  ignore (Rql.declare_snapshot ctx);
  let stmts =
    [ ("scan", "SELECT * FROM t");
      ("filter", "SELECT * FROM t, u WHERE t.a = u.a AND t.b + u.c > 0");
      ("join", "SELECT t.a, u.c FROM t, u WHERE t.a = u.a");
      ("agg", "SELECT b, COUNT(*) FROM t GROUP BY b ORDER BY b") ]
  in
  List.iter
    (fun (label, sql) ->
      Util.subsection label;
      let res = E.exec db ("EXPLAIN ANALYZE " ^ sql) in
      List.iter (fun row -> print_endline (R.value_to_string row.(0))) res.E.rows;
      match E.last_analysis db with
      | Some az -> Util.record_analysis ~label (Sqldb.Plan.analysis_to_json az)
      | None -> ())
    stmts;
  (* An analyzed RQL run: the Qq's operator actuals accumulate across
     the snapshot loop into the per-mechanism run report. *)
  ignore (E.exec db "INSERT INTO t VALUES (999, 1)");
  ignore (Rql.declare_snapshot ctx);
  ignore
    (Rql.collate_data ~analyze:true ctx ~qs:"SELECT snap_id FROM SnapIds"
       ~qq:"SELECT a, b FROM t WHERE b > 0" ~table:"AnalyzeOut");
  match Rql.run_report () with
  | Some r ->
    Util.subsection "rql run report";
    Printf.printf "%s over %d iterations: %d operators instrumented\n" r.Rql.rr_mechanism
      r.Rql.rr_iterations (List.length r.Rql.rr_ops);
    List.iter
      (fun (a : Sqldb.Plan.op_actual) ->
        Printf.printf "  op %d %-12s rows=%d loops=%d time=%.3fms pages=%d\n"
          a.Sqldb.Plan.a_id a.Sqldb.Plan.a_kind a.Sqldb.Plan.a_rows a.Sqldb.Plan.a_loops
          (a.Sqldb.Plan.a_elapsed_s *. 1e3) a.Sqldb.Plan.a_pages)
      r.Rql.rr_ops;
    Util.record_analysis ~label:"rql_run" (Rql.run_report_to_json r)
  | None -> print_endline "no run report"

(* --- scoped-instrumentation smoke (bench --scope-smoke) ----------------- *)

(* CI gate for the scope layer: Qq_cpu with a child scope installed must
   cost within 5% of the root-only baseline (the hot instrumentation
   path adds one physical-equality test plus a pre-resolved chain walk),
   and the heat matrix must partition storage.page_reads exactly — every
   page read attributed to some (table, snapshot) cell, none counted
   twice. *)
let run_scope_smoke () =
  Util.section "Scope smoke: scoped-instrumentation overhead + heat attribution";
  let fx =
    Fixtures.get
      { Fixtures.uw = Tpch.Workload.uw30; snapshots = 8; native_lineitem_index = false }
  in
  let ctx = fx.Fixtures.ctx in
  let db = ctx.Rql.data in
  (* The Qq runs on the ctx's evaluation session: the baseline charges
     the root only, the scoped variant a child scope as well. *)
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
  let workload = run_in Obs.Scope.root in
  let scoped = run_in (Obs.Scope.create "bench.scope_smoke") in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  (* Warm both variants (covering-index build, plan and snapshot caches),
     then alternate measurements and keep the minimum — the low-noise
     estimator for a CPU-bound loop. *)
  workload ();
  scoped ();
  let reps = 5 in
  let base_min = ref infinity and scope_min = ref infinity in
  for _ = 1 to reps do
    base_min := Float.min !base_min (time workload);
    scope_min := Float.min !scope_min (time scoped)
  done;
  let ratio = !scope_min /. !base_min in
  Printf.printf "Qq_cpu min-of-%d: baseline %.4fs, scoped %.4fs, ratio %.3f (gate: <= 1.05)\n"
    reps !base_min !scope_min ratio;
  let heat = Obs.Scope.heat_total Obs.Scope.root in
  let reads = Obs.Scope.page_reads_total () in
  Printf.printf "heat partition: root heat total %d, storage.page_reads %d\n" heat reads;
  (* The same equality through SQL: warm sys_heat's plan and the catalog
     so the measured re-run performs zero page reads, then the virtual
     table must report exactly the live total. *)
  let sql_total () = E.int_scalar db "SELECT SUM(reads) FROM sys_heat WHERE scope_id = 0" in
  ignore (sql_total ());
  let expected = Obs.Scope.page_reads_total () in
  let via_sql = sql_total () in
  Printf.printf "sys_heat via SQL: %d (live total %d)\n" via_sql expected;
  Util.record_analysis ~label:"scope_smoke"
    (Obs.Json.Obj
       [ ("baseline_s", Obs.Json.Float !base_min);
         ("scoped_s", Obs.Json.Float !scope_min);
         ("ratio", Obs.Json.Float ratio);
         ("heat_total", Obs.Json.Int heat);
         ("page_reads", Obs.Json.Int reads);
         ("heat_total_sql", Obs.Json.Int via_sql);
         ("page_reads_at_sql", Obs.Json.Int expected) ]);
  if heat <> reads then
    failwith "scope smoke: heat matrix does not partition storage.page_reads";
  if via_sql <> expected then
    failwith "scope smoke: sys_heat SQL total diverges from storage.page_reads";
  if ratio > 1.05 then
    failwith
      (Printf.sprintf "scope smoke: scoped overhead %.1f%% exceeds the 5%% gate"
         ((ratio -. 1.) *. 100.))

(* --- optimizer smoke (bench --opt-smoke) -------------------------------- *)

(* Qq_cpu with foldable constants: the multiplier, the concatenated
   type literal and the tautological conjunct are all compile-time
   facts the optimizer removes (§16).  Result-identical to Qq_cpu. *)
let qq_cpu_opt =
  "SELECT SUM(l_extendedprice * (1.0 + 0.0)) AS revenue FROM part, lineitem \
   WHERE p_partkey = l_partkey AND p_type = 'STANDARD' || ' POLISHED TIN' \
   AND 1 + 1 = 2"

(* CI gate for the plan-IR optimizer: running the foldable Qq_cpu
   through the snapshot loop must advance sql.opt_folds and — because
   the prepared Qq carries AS OF, so the folds are amortized over the
   loop — sql.opt_invariant_hoists; the optimized run must not be
   slower than `PRAGMA optimize = off` (gate: p50 on <= 1.05 x off);
   and both settings must produce the identical result table (the
   differential contract of test_opt.ml, re-checked on TPC-H data). *)
let run_opt_smoke () =
  Util.section "Optimizer smoke: fold/hoist counters + optimized Qq_cpu latency";
  let fx =
    Fixtures.get
      { Fixtures.uw = Tpch.Workload.uw30; snapshots = 8; native_lineitem_index = false }
  in
  let ctx = fx.Fixtures.ctx in
  let db = ctx.Rql.data in
  let set on =
    ignore (E.exec db (if on then "PRAGMA optimize = on" else "PRAGMA optimize = off"))
  in
  let workload () =
    ignore
      (Rql.aggregate_data_in_variable ctx ~qs:(Queries.qs_n 5) ~qq:qq_cpu_opt
         ~table:"bench_opt" ~fn:"sum")
  in
  let result () =
    let res = E.exec ctx.Rql.meta "SELECT * FROM bench_opt ORDER BY 1" in
    String.concat "\n"
      (List.map
         (fun row ->
           String.concat "|" (Array.to_list (Array.map R.value_to_string row)))
         res.E.rows)
  in
  let c_folds = Obs.Metrics.counter "sql.opt_folds" in
  let c_hoists = Obs.Metrics.counter "sql.opt_invariant_hoists" in
  let folds0 = Obs.Metrics.Counter.get c_folds in
  let hoists0 = Obs.Metrics.Counter.get c_hoists in
  (* Warm both variants (covering-index build, snapshot cache) and take
     the differential identity check from the warm runs. *)
  set true;
  workload ();
  let rows_on = result () in
  set false;
  workload ();
  let rows_off = result () in
  let identical = rows_on = rows_off in
  let folds = Obs.Metrics.Counter.get c_folds - folds0 in
  let hoists = Obs.Metrics.Counter.get c_hoists - hoists0 in
  let time f =
    let t0 = Unix.gettimeofday () in
    f ();
    Unix.gettimeofday () -. t0
  in
  let reps = 5 in
  let sample on =
    set on;
    time workload
  in
  let p50 samples =
    let a = Array.of_list samples in
    Array.sort compare a;
    a.(Array.length a / 2)
  in
  (* Interleave the two settings so slow drift (cache warming, CPU
     frequency) biases neither side. *)
  let pairs = List.init reps (fun _ -> let on = sample true in (on, sample false)) in
  let on_times = List.map fst pairs and off_times = List.map snd pairs in
  set true;
  let p50_on = p50 on_times and p50_off = p50 off_times in
  let ratio = p50_on /. p50_off in
  Printf.printf "optimizer counters over the smoke: folds=%d invariant_hoists=%d\n" folds hoists;
  Printf.printf "Qq_cpu(foldable) p50-of-%d: optimize=on %.4fs, off %.4fs, ratio %.3f (gate: <= 1.05)\n"
    reps p50_on p50_off ratio;
  Printf.printf "result tables identical across settings: %b\n" identical;
  Util.record_analysis ~label:"opt_smoke"
    (Obs.Json.Obj
       [ ("opt_folds", Obs.Json.Int folds);
         ("opt_invariant_hoists", Obs.Json.Int hoists);
         ("p50_on_s", Obs.Json.Float p50_on);
         ("p50_off_s", Obs.Json.Float p50_off);
         ("ratio", Obs.Json.Float ratio);
         ("identical", Obs.Json.Bool identical) ]);
  if folds <= 0 then failwith "opt smoke: sql.opt_folds did not advance";
  if hoists <= 0 then failwith "opt smoke: sql.opt_invariant_hoists did not advance";
  if not identical then failwith "opt smoke: optimize=on and off results diverge";
  if ratio > 1.05 then
    failwith
      (Printf.sprintf "opt smoke: optimized p50 %.1f%% over the optimize=off baseline"
         ((ratio -. 1.) *. 100.))

let run () =
  Util.section "Micro-benchmarks (bechamel): primitive operation costs";
  (* force the fixtures outside the measured region *)
  ignore (Lazy.force btree_fixture);
  ignore (Lazy.force retro_fixture);
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:true ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~stabilize:true () in
  Printf.printf "%-44s %14s\n" "operation" "ns/run";
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          match Analyze.OLS.estimates ols_result with
          | Some [ est ] -> Printf.printf "%-44s %14.1f\n%!" name est
          | _ -> Printf.printf "%-44s %14s\n%!" name "n/a")
        analyzed)
    tests
