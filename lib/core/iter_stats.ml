(* Per-iteration cost breakdown for RQL runs.

   The benchmarks reproduce the paper's stacked bars (Figs 8-13), which
   attribute each iteration's latency to I/O, SPT build, (covering)
   index creation, query evaluation and RQL UDF processing.  Both RQL
   loops build an iteration the same way: the Qq is evaluated on a
   session whose scope's counter and gauge deltas give the read counts
   and the SPT/index times, then the loop body applies the rows and is
   timed once.  I/O is modeled from the archive-read count (see
   DESIGN.md); the other components are measured wall-clock. *)

type iteration = {
  snap_id : int;
  cold : bool;                 (* evaluated from nothing: all-cold, or a first
                                  iteration that is no delta *)
  pagelog_reads : int;         (* archive reads of the Qq evaluation *)
  db_reads : int;              (* current-state page reads of the Qq evaluation *)
  cache_hits : int;            (* snapshot page cache, during the evaluation *)
  cache_misses : int;
  io_s : float;                (* modeled: pagelog reads x device latency *)
  spt_build_s : float;         (* measured SPT builds within the evaluation *)
  spt_entries : int;           (* maplog entries scanned *)
  index_build_s : float;       (* automatic covering-index creation, likewise *)
  query_eval_s : float;        (* evaluation wall time minus SPT and index builds *)
  udf_s : float;               (* loop body: applying the rows, commit included *)
  udf_rows : int;              (* Qq rows processed by the loop body *)
  udf_inserts : int;           (* result-table inserts *)
  udf_updates : int;           (* result-table updates *)
  eval : string;               (* how Qq ran: "plain" (ordinary executor),
                                  "full" or "delta" (incremental evaluator) *)
  base : int option;           (* a delta's base: the snapshot it evaluated from,
                                  an earlier run's on a warm first iteration *)
  pages_evaluated : int;       (* heap pages the incremental evaluator read *)
  pages_reused : int;          (* heap pages whose kept rows carried over *)
}

let iteration_total it =
  it.io_s +. it.spt_build_s +. it.index_build_s +. it.query_eval_s +. it.udf_s

type run = {
  mechanism : string;
  qq : string;
  iterations : iteration list; (* in execution order *)
  ops : Sqldb.Plan.op_actual list; (* an analyzed run's Qq operator actuals, summed
                                      over its iterations; [] otherwise *)
  result_rows : int;
  result_bytes : int;          (* approximate result-table footprint *)
  finalize_s : float;          (* post-loop work: the scan of T behind result_rows/bytes *)
}

let total_s run =
  List.fold_left (fun acc it -> acc +. iteration_total it) run.finalize_s run.iterations

(* Aggregate breakdown over a run's iterations (for bar charts). *)
type breakdown = {
  b_io : float;
  b_spt : float;
  b_index : float;
  b_query : float;
  b_udf : float;
}

let breakdown_of iterations =
  List.fold_left
    (fun b it ->
      { b_io = b.b_io +. it.io_s;
        b_spt = b.b_spt +. it.spt_build_s;
        b_index = b.b_index +. it.index_build_s;
        b_query = b.b_query +. it.query_eval_s;
        b_udf = b.b_udf +. it.udf_s })
    { b_io = 0.; b_spt = 0.; b_index = 0.; b_query = 0.; b_udf = 0. }
    iterations

let breakdown_total b = b.b_io +. b.b_spt +. b.b_index +. b.b_query +. b.b_udf

(* --- JSON export --------------------------------------------------------- *)

(* Structured form of the per-iteration breakdown: what `bench --json`
   writes.  [total_s] repeats the component sum so consumers need not
   recompute it; the numbers are exactly the ones the printed tables
   show. *)
let json_of_iteration (it : iteration) : Obs.Json.t =
  Obs.Json.Obj
    [ ("snap_id", Obs.Json.Int it.snap_id);
      ("cold", Obs.Json.Bool it.cold);
      ("pagelog_reads", Obs.Json.Int it.pagelog_reads);
      ("db_reads", Obs.Json.Int it.db_reads);
      ("cache_hits", Obs.Json.Int it.cache_hits);
      ("cache_misses", Obs.Json.Int it.cache_misses);
      ("io_s", Obs.Json.Float it.io_s);
      ("spt_build_s", Obs.Json.Float it.spt_build_s);
      ("spt_entries", Obs.Json.Int it.spt_entries);
      ("index_build_s", Obs.Json.Float it.index_build_s);
      ("query_eval_s", Obs.Json.Float it.query_eval_s);
      ("udf_s", Obs.Json.Float it.udf_s);
      ("udf_rows", Obs.Json.Int it.udf_rows);
      ("udf_inserts", Obs.Json.Int it.udf_inserts);
      ("udf_updates", Obs.Json.Int it.udf_updates);
      ("eval", Obs.Json.Str it.eval);
      ("base", match it.base with Some b -> Obs.Json.Int b | None -> Obs.Json.Null);
      ("pages_evaluated", Obs.Json.Int it.pages_evaluated);
      ("pages_reused", Obs.Json.Int it.pages_reused);
      ("total_s", Obs.Json.Float (iteration_total it)) ]

let json_of_breakdown (b : breakdown) : Obs.Json.t =
  Obs.Json.Obj
    [ ("io_s", Obs.Json.Float b.b_io);
      ("spt_build_s", Obs.Json.Float b.b_spt);
      ("index_build_s", Obs.Json.Float b.b_index);
      ("query_eval_s", Obs.Json.Float b.b_query);
      ("udf_s", Obs.Json.Float b.b_udf);
      ("total_s", Obs.Json.Float (breakdown_total b)) ]

let json_of_run ?experiment ?label (run : run) : Obs.Json.t =
  let tag k v = match v with Some s -> [ (k, Obs.Json.Str s) ] | None -> [] in
  Obs.Json.Obj
    (tag "experiment" experiment
    @ tag "label" label
    @ [ ("mechanism", Obs.Json.Str run.mechanism);
        ("qq", Obs.Json.Str run.qq);
        ("result_rows", Obs.Json.Int run.result_rows);
        ("result_bytes", Obs.Json.Int run.result_bytes);
        ("finalize_s", Obs.Json.Float run.finalize_s);
        ("total_s", Obs.Json.Float (total_s run));
        ("breakdown", json_of_breakdown (breakdown_of run.iterations));
        ("iterations", Obs.Json.List (List.map json_of_iteration run.iterations)) ])

(* --- modeled trace emission ----------------------------------------------- *)

(* A delta iteration's trace attribute naming its base snapshot. *)
let base_attr it = match it.base with Some b -> [ ("base", Obs.Trace.Int b) ] | None -> []

(* Lay the run's cost attribution out on the modeled trace track
   (tid 2): run -> iteration -> {io, spt_build, index_build, query_eval,
   udf}, durations from the attributed breakdown rather than the host
   clock (I/O time is the simulated-device model), tiled sequentially so
   the spans nest exactly.  [start_s] anchors the modeled track at the
   run's real start so the wall-clock track lines up roughly. *)
let emit_trace ~start_s (run : run) =
  if Obs.Trace.is_enabled () then begin
    let tid = Obs.Trace.tid_modeled in
    let us0 = Obs.Trace.us_of_s start_s in
    let run_id =
      Obs.Trace.emit ~tid ~parent:(-1) ~name:"rql.run"
        ~attrs:
          [ ("mechanism", Obs.Trace.Str run.mechanism);
            ("qq", Obs.Trace.Str run.qq);
            ("result_rows", Obs.Trace.Int run.result_rows) ]
        ~ts_us:us0
        ~dur_us:(total_s run *. 1e6)
        ()
    in
    let cursor = ref us0 in
    List.iter
      (fun it ->
        let it_us = iteration_total it *. 1e6 in
        let it_id =
          Obs.Trace.emit ~tid ~parent:run_id ~name:"rql.iteration"
            ~attrs:
              ([ ("snap_id", Obs.Trace.Int it.snap_id);
                 ("cold", Obs.Trace.Bool it.cold);
                 ("pagelog_reads", Obs.Trace.Int it.pagelog_reads);
                 ("eval", Obs.Trace.Str it.eval);
                 ("pages_evaluated", Obs.Trace.Int it.pages_evaluated) ]
              @ base_attr it)
            ~ts_us:!cursor ~dur_us:it_us ()
        in
        let sub = ref !cursor in
        let component name s attrs =
          ignore
            (Obs.Trace.emit ~tid ~parent:it_id ~name ~attrs ~ts_us:!sub ~dur_us:(s *. 1e6) ());
          sub := !sub +. (s *. 1e6)
        in
        component "io" it.io_s [ ("pagelog_reads", Obs.Trace.Int it.pagelog_reads) ];
        component "spt_build" it.spt_build_s [ ("entries", Obs.Trace.Int it.spt_entries) ];
        component "index_build" it.index_build_s [];
        component "query_eval" it.query_eval_s [];
        component "udf" it.udf_s [ ("rows", Obs.Trace.Int it.udf_rows) ];
        cursor := !cursor +. it_us)
      run.iterations
  end
