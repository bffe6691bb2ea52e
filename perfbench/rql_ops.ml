(* The two single-client RQL workloads: one client, closed loop, each op
   one RQL mechanism run over consecutive old snapshots of a
   [history_snapshots]-snapshot UW30 history (see README.md for why each
   exists). *)

let history_snapshots = 90

module IS = Rql.Iter_stats

(* Table 1 of the paper (bench/queries.ml holds the same texts). *)
let qq_io = "SELECT COUNT(*) AS c FROM orders WHERE o_orderstatus = 'O'"

let qq_cpu =
  "SELECT SUM(l_extendedprice) AS revenue FROM part, lineitem WHERE p_partkey = l_partkey \
   AND p_type = 'STANDARD POLISHED TIN'"

let qq_agg =
  "SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av FROM orders GROUP BY o_custkey"

let qq_int = "SELECT o_orderkey, o_custkey FROM orders"

type kind = Scan_avg | Agg_max | Intervals | Cpu_avg

let kind_name = function
  | Scan_avg -> "scan_avg"
  | Agg_max -> "agg_max"
  | Intervals -> "intervals"
  | Cpu_avg -> "cpu_avg"

let result_table k = "bench_" ^ kind_name k

let qq_of = function
  | Scan_avg -> qq_io
  | Cpu_avg -> qq_cpu
  | Agg_max -> qq_agg
  | Intervals -> qq_int

type op = { kind : kind; start : int; len : int }

let qs op =
  Printf.sprintf "SELECT snap_id FROM SnapIds WHERE snap_id >= %d AND snap_id < %d" op.start
    (op.start + op.len)

let sids op = List.init op.len (fun i -> op.start + i)

let run_op ?domains (ctx : Rql.ctx) op =
  let table = result_table op.kind and qs = qs op in
  match op.kind with
  | Scan_avg -> Rql.aggregate_data_in_variable ?domains ctx ~qs ~qq:qq_io ~table ~fn:"AVG"
  | Cpu_avg -> Rql.aggregate_data_in_variable ?domains ctx ~qs ~qq:qq_cpu ~table ~fn:"AVG"
  | Agg_max ->
    Rql.aggregate_data_in_table ?domains ctx ~qs ~qq:qq_agg ~table ~aggs:[ ("cn", "MAX") ]
  | Intervals -> Rql.collate_data_into_intervals ?domains ctx ~qs ~qq:qq_int ~table

(* The naive fold an op's result table must equal. *)
let expected ctx op =
  let sids = sids op in
  match op.kind with
  | Scan_avg | Cpu_avg -> Oracle.agg_var_avg ctx (qq_of op.kind) sids
  | Agg_max -> Oracle.agg_table_max ctx qq_agg ~col:1 sids
  | Intervals -> Oracle.intervals ctx qq_int sids

type spec = {
  ops_of : Random.State.t -> int -> op; (* i-th op of a run *)
  rotation : int; (* the measured phase ends on a whole rotation of op kinds *)
  parallel_check : bool;
}

(* rql_scan: the paper's headline query over 25 consecutive old
   snapshots, start drawn per op in 1..25. *)
let scan =
  { ops_of = (fun rng _ -> { kind = Scan_avg; start = 1 + Random.State.int rng 25; len = 25 });
    rotation = 1;
    parallel_check = false }

(* rql_compute: equal thirds of three compute-heavy mechanisms over 3
   consecutive old snapshots. *)
let compute =
  { ops_of =
      (fun rng i ->
        let kind = match i mod 3 with 0 -> Agg_max | 1 -> Intervals | _ -> Cpu_avg in
        { kind; start = 1 + Random.State.int rng 25; len = 3 });
    rotation = 3;
    parallel_check = true }

type done_op = {
  op : op;
  lat_s : float;
  run : IS.run option; (* None: the op raised *)
  digest : string;
  pagelog_reads : int;
  traced : bool;
  k : Util.counters; (* root-counter delta (traced ops) *)
  alloc_bytes : float;
  minor_words : float;
  qs_s : float;
  spt_s : float list;
}

(* Wall time of an iteration without the modeled device time. *)
let iter_cpu_s (it : IS.iteration) = IS.iteration_total it -. it.IS.io_s

(* One op; a traced op also evaluates its Qs in its own span, takes a
   root-counter delta around the op, and builds its snapshots' SPTs in
   spans after it.  The result table is read back (untimed) and digested
   for verification. *)
let exec_op ~traced (fx : Fixture.t) op =
  let ctx = fx.Fixture.ctx in
  let pl0 = Obs.Scope.get Storage.Stats.c_pagelog_reads in
  let k0 = if traced then Util.counters () else Util.no_counters in
  let a0 = Gc.allocated_bytes () and w0 = Gc.minor_words () in
  let qs_s =
    if traced then snd (Span.timed "core.qs_eval" (fun () -> Rql.snapshot_set ctx (qs op)))
    else 0.
  in
  let run, lat_s =
    let t0 = Util.now () in
    match
      if traced then Span.with_span ("core." ^ kind_name op.kind) (fun () -> run_op ctx op)
      else run_op ctx op
    with
    | r -> (Some r, Util.now () -. t0)
    | exception (Rql.Error _ | Sqldb.Engine.Error _ | Retro.Snapshot_damaged _) ->
      (None, Util.now () -. t0)
  in
  let minor_words = Gc.minor_words () -. w0 and alloc_bytes = Gc.allocated_bytes () -. a0 in
  let pagelog_reads = Obs.Scope.get Storage.Stats.c_pagelog_reads - pl0 in
  let k = if traced then Util.delta ~before:k0 ~after:(Util.counters ()) else Util.no_counters in
  let spt_s =
    if traced then
      List.map
        (fun sid ->
          snd (Span.timed "retro.build_spt" (fun () -> Retro.build_spt fx.Fixture.retro sid)))
        (sids op)
    else []
  in
  let digest =
    match run with
    | Some _ -> Oracle.digest (Oracle.table_rows ctx (result_table op.kind))
    | None -> ""
  in
  { op; lat_s; run; digest; pagelog_reads; traced; k; alloc_bytes; minor_words; qs_s; spt_s }

(* The machine-speed kernel is timed briefly before every op (untimed),
   so the scaling follows the machine through the measured phase. *)
let drive ~calib ~seed ~seconds ~trace spec (fx : Fixture.t) =
  let rng = Random.State.make [| seed; 0x5ca1 |] in
  let ops = ref [] and peak = ref (Util.heap_mb ()) in
  let deadline = Util.now () +. seconds in
  let i = ref 0 in
  while Util.now () < deadline || !i mod spec.rotation <> 0 do
    Util.assert_cpu_only ();
    ignore (Calib.checkpoint ~reps:3 calib);
    (* In the traced run every other op is traced, so the untraced ops
       in between give the tracing overhead under the same conditions. *)
    let d = exec_op ~traced:(trace && !i mod 2 = 0) fx (spec.ops_of rng !i) in
    peak := Float.max !peak (Util.heap_mb ());
    ops := d :: !ops;
    incr i
  done;
  (List.rev !ops, !peak)

(* Probe ops of the traced run, for layers a workload's own ops do not
   exercise: a scan over the three oldest snapshots, and a Qq_cpu run,
   whose join builds a covering index per iteration. *)
let probe_ops =
  [ { kind = Scan_avg; start = 1; len = 3 }; { kind = Cpu_avg; start = 1; len = 2 } ]

(* Untimed verification: every op's result table against the naive
   fold for its snapshots; returns the number of wrong or failed ops. *)
let verify ctx ops =
  let expected_digest = Hashtbl.create 64 in
  List.fold_left
    (fun bad d ->
      let key = (d.op.kind, d.op.start, d.op.len) in
      let want =
        match Hashtbl.find_opt expected_digest key with
        | Some w -> w
        | None ->
          let w = Oracle.digest (expected ctx d.op) in
          Hashtbl.replace expected_digest key w;
          w
      in
      if d.run = None || d.digest <> want then bad + 1 else bad)
    0 ops

(* The Domain-parallel loop must produce a byte-identical result table
   (rows in heap order, not just the same multiset).  Correctness only:
   its per-iteration accounting is not exact yet, so it is not timed. *)
let parallel_identical ctx op =
  let rows () = List.map Storage.Record.encode_row (Oracle.table_rows ctx (result_table op.kind)) in
  ignore (run_op ctx op);
  let seq = rows () in
  ignore (run_op ~domains:2 ctx op);
  seq = rows ()
