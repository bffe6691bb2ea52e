(* Plan execution.

   Planning lives in [Opt.plan] (Planner, then the optimizer, producing
   typed Plan.t values); this module evaluates plan values against an
   [env] — the current database state or any snapshot environment — as
   push-style iterators.  Because a plan contains no executor state and
   all value positions are expressions, the same compiled plan can be
   executed repeatedly with different parameter bindings and against
   different snapshots; only uncorrelated subqueries are (re-)expanded
   per execution.

   The ephemeral hash indexes built for equi-joins (SQLite's
   automatic-index analogue, whose construction cost the paper's Fig 9
   isolates) are timed into Exec_stats.index_build_s. *)

module R = Storage.Record
open Ast

let error = Sql_error.error

(* --- environments ----------------------------------------------------- *)

type env = {
  db : Db.t;
  read : Storage.Pager.read;
  cat : Catalog.t;
  as_of : int option;
  analyze : bool; (* fill per-operator plan instrumentation slots *)
}

let current_env db =
  { db; read = Db.read_current db; cat = Db.catalog db; as_of = None;
    analyze = db.Db.analyze }

(* Environment reading as of snapshot [sid]: builds the SPT (timed as
   "SPT build") and resolves the catalog from the snapshot itself. *)
let snapshot_env db sid =
  let retro = Db.retro_exn db in
  if sid < 1 || sid > Retro.snapshot_count retro then
    error "AS OF %d: no such snapshot" sid;
  if Retro.is_vacuumed retro sid then
    error "AS OF %d: snapshot has been vacuumed (oldest retained is %d)" sid
      (Retro.first_live retro);
  (* the SPT build's page reads (maplog scan) are charged to the snapshot *)
  let spt =
    Obs.Scope.with_snapshot sid (fun () ->
        Exec_stats.time_spt (fun () -> Retro.build_spt retro sid))
  in
  let read = Retro.read_ctx retro spt in
  { db; read; cat = Catalog.load read; as_of = Some sid; analyze = db.Db.analyze }

(* Environment for an evaluated AS OF expression (parameters must have
   been bound). *)
let env_of_as_of db (e : expr) =
  match Expr.eval_const (Db.fn_ctx db) e with
  | R.Int sid -> snapshot_env db sid
  | v -> error "AS OF requires an integer snapshot id, got %s" (R.value_to_string v)

let env_of_select db (sel : select) =
  match sel.as_of with None -> current_env db | Some e -> env_of_as_of db e

(* --- source scans ------------------------------------------------------ *)

let heap_of env (tbl : Catalog.table) =
  match env.as_of with
  | None -> Db.heap_handle env.db tbl.theap
  | Some _ -> Storage.Heap.open_existing tbl.theap

let c_rows_scanned = Obs.Scope.counter "sql.rows_scanned"
let c_rows_returned = Obs.Scope.counter "sql.rows_returned"

(* --- operator instrumentation ------------------------------------------

   Total pages read so far (current-state pager + snapshot archive);
   per-operator page-read deltas are differences of this sum.  Counter
   reads are single field loads, so an instrumented run stays cheap. *)
let pages_now () =
  Obs.Scope.get Storage.Stats.c_db_page_reads
  + Obs.Scope.get Storage.Stats.c_pagelog_reads

(* Heat attribution: the scan marks its table (and, under AS OF, its
   snapshot) for the duration, so every page read below lands in the
   right (table, snapshot) cell. *)
let attributed env (tbl : Catalog.table) f =
  Obs.Scope.with_table tbl.Catalog.tname
    (match env.as_of with
    | Some sid -> fun () -> Obs.Scope.with_snapshot sid f
    | None -> f)

(* Rows are decoded straight from the page bytes by [decode]: the full
   row ([R.decode_bytes]) or just a query's columns ([R.decode_cols]). *)
type decoder = Bytes.t -> off:int -> len:int -> R.row

let scan_heap env tbl ~(decode : decoder) ~f =
  (* rows are counted locally and added once, also when a consumer
     stops the scan early (LIMIT) by raising *)
  let rows = ref 0 in
  attributed env tbl (fun () ->
      Fun.protect
        ~finally:(fun () -> Obs.Scope.add c_rows_scanned !rows)
        (fun () ->
          Storage.Heap.iter_spans env.read (heap_of env tbl) ~f:(fun rid p off len ->
              incr rows;
              f rid (decode p ~off ~len))))

let is_virtual (tbl : Catalog.table) = tbl.theap < 0

(* Scan dispatcher: virtual system tables materialize their rows from
   live engine state (rid -1: they have no storage, and no DML path
   accepts them); real tables stream from the heap.  Virtual tables
   also never have indexes, so every index-based access path passes
   them by without a check. *)
let scan_rows env (tbl : Catalog.table) ~decode ~f =
  if is_virtual tbl then
    List.iter
      (fun row ->
        Obs.Scope.incr c_rows_scanned;
        f (-1) row)
      (Systables.rows env.db tbl)
  else scan_heap env tbl ~decode ~f

let fetch_row env (tbl : Catalog.table) ~(decode : decoder) rid =
  attributed env tbl (fun () ->
      Storage.Heap.get_span env.read (heap_of env tbl) rid ~f:(fun p off len ->
          decode p ~off ~len))

let index_key (tbl : Catalog.table) (idx : Catalog.index) (row : R.row) : R.row =
  Array.of_list (List.map (fun c -> row.(Planner.col_pos tbl c)) idx.Catalog.icols)

(* Iterate rids of [tbl] matching the (evaluated) leading-column bounds
   via [idx]. *)
let index_scan env (tbl : Catalog.table) (idx : Catalog.index) bounds ~f =
  let bt = Storage.Btree.open_existing idx.Catalog.iroot in
  let lo = ref ([||], min_int) and hi = ref None in
  List.iter
    (fun (_, op, v) ->
      match op with
      | Eq ->
        lo := ([| v |], min_int);
        hi := Some ([| v |], max_int)
      | Gt -> lo := ([| v |], max_int)
      | Ge -> lo := ([| v |], min_int)
      | Lt -> hi := Some ([| v |], min_int)
      | Le -> hi := Some ([| v |], max_int)
      | _ -> ())
    bounds;
  (* The composite bounds are [lo, hi]; Gt uses ([v],max_int) so real
     entries ([v],rid) fall below it, and Lt uses ([v],min_int)
     symmetrically. *)
  attributed env tbl (fun () ->
      Storage.Btree.range env.read bt ~lo:!lo ~hi:!hi ~f:(fun rid -> f rid; true))

(* Evaluate the bound expressions of an index search (parameters are
   already bound; values may come from constant function calls). *)
let eval_bounds fnctx bounds =
  List.map (fun (i, op, e) -> (i, op, Expr.eval_const fnctx e)) bounds

(* --- aggregation -------------------------------------------------------- *)

(* The one definition of the aggregate functions: SQL's GROUP BY and
   RQL's AggregateDataInVariable / AggregateDataInTable all fold through
   [acc_add].  NULL is skipped; every other value counts (COUNT, AVG),
   INTEGERs sum exactly and as floats, a REAL or a numeric TEXT makes
   the sum REAL, and a non-numeric TEXT adds 0.  MIN/MAX order values
   by [Record.compare_value]. *)
type agg_acc = {
  spec : agg; (* with resolved argument *)
  mutable a_count : int;
  mutable a_sum_i : int;
  mutable a_sum_f : float;
  mutable a_real : bool;
  mutable a_mm : R.value;
  a_distinct : (string, unit) Hashtbl.t option;
}

let new_acc spec =
  { spec;
    a_count = 0;
    a_sum_i = 0;
    a_sum_f = 0.;
    a_real = false;
    a_mm = R.Null;
    a_distinct = (if spec.agg_distinct then Some (Hashtbl.create 16) else None) }

(* Fold one value into [acc].  Inlined into [acc_step], so the
   executor's per-row path makes no extra call. *)
let[@inline] acc_add acc (v : R.value) =
  match v with
  | R.Null -> ()
  | _ -> (
    acc.a_count <- acc.a_count + 1;
    (match v with
    | R.Int i ->
      acc.a_sum_i <- acc.a_sum_i + i;
      acc.a_sum_f <- acc.a_sum_f +. float_of_int i
    | R.Real f ->
      acc.a_real <- true;
      acc.a_sum_f <- acc.a_sum_f +. f
    | R.Text _ | R.Null -> (
      match Expr.to_number v with
      | Some f ->
        acc.a_real <- true;
        acc.a_sum_f <- acc.a_sum_f +. f
      | None -> ()));
    match acc.spec.agg_fn, acc.a_mm with
    | (Min | Max), R.Null -> acc.a_mm <- v
    | Min, mm -> if R.compare_value v mm < 0 then acc.a_mm <- v
    | Max, mm -> if R.compare_value v mm > 0 then acc.a_mm <- v
    | (Count | Sum | Total | Avg), _ -> ())

let acc_step fnctx acc row =
  let v =
    match acc.spec.agg_arg with
    | None -> R.Int 1 (* COUNT star *)
    | Some e -> Expr.eval fnctx ~row ~aggs:[||] e
  in
  match v, acc.a_distinct with
  | R.Null, _ -> ()
  | _, None -> acc_add acc v
  | _, Some tbl ->
    let k = R.encode_row [| v |] in
    if not (Hashtbl.mem tbl k) then begin
      Hashtbl.add tbl k ();
      acc_add acc v
    end

(* An accumulator that continues from a stored result: [v] is the result
   itself for MIN, MAX, SUM and COUNT.  AVG's result loses its count, so
   it resumes from its (sum, count) pair instead, [acc_resume_avg]. *)
let acc_resume spec (v : R.value) =
  let acc = new_acc spec in
  (match spec.agg_fn, v with
  | Count, R.Int n -> acc.a_count <- n
  | Count, _ -> ()
  | (Sum | Total | Avg | Min | Max), _ -> acc_add acc v);
  acc

let acc_resume_avg spec ~sum ~count =
  let acc = new_acc spec in
  acc.a_sum_f <- Option.value (Expr.to_number sum) ~default:0.;
  acc.a_count <- (match count with R.Int n -> n | _ -> 0);
  acc

(* The (sum, count) pair [acc_resume_avg] reads: the sum is NULL until a
   value has been folded. *)
let acc_avg_state acc =
  ((if acc.a_count = 0 then R.Null else R.Real acc.a_sum_f), R.Int acc.a_count)

let acc_final acc =
  match acc.spec.agg_fn with
  | Count -> R.Int acc.a_count
  | Sum ->
    if acc.a_count = 0 then R.Null
    else if acc.a_real then R.Real acc.a_sum_f
    else R.Int acc.a_sum_i
  | Total -> R.Real acc.a_sum_f
  | Avg -> if acc.a_count = 0 then R.Null else R.Real (acc.a_sum_f /. float_of_int acc.a_count)
  | Min | Max -> acc.a_mm

(* --- grouping ---------------------------------------------------------- *)

(* Hash key of [exprs] over a row: their values, encoded.  One value
   buffer per key function, refilled per row (the encoding copies). *)
let key_fn fnctx exprs =
  let exprs = Array.of_list exprs in
  let vals = Array.make (Array.length exprs) R.Null in
  fun row ->
    for i = 0 to Array.length exprs - 1 do
      vals.(i) <- Expr.eval fnctx ~row ~aggs:[||] exprs.(i)
    done;
    R.encode_row vals

(* --- equi-join keys ------------------------------------------------------

   A join key is its expressions' values, unencoded.  Two keys join when
   SQL [=] holds on every pair: a NULL joins nothing, Int 1 joins Real
   1.0, text joins equal text and no number.  Hash tables group keys by
   their values read as floats — an equivalence, as a table needs.  That
   is SQL [=] exactly unless two integers a float cannot hold (|i| >=
   2^53) read as the same float, so a probe holding such an integer
   re-checks each candidate ([Jkey.coarse]). *)
module Jkey = struct
  type t = R.value array

  let limit = 1 lsl 53
  let wide i = i >= limit || i <= -limit

  let equal_value a b =
    match a, b with
    | R.Int x, R.Int y -> x = y || (wide x && wide y && float_of_int x = float_of_int y)
    | R.Int x, R.Real y | R.Real y, R.Int x -> Float.equal (float_of_int x) y
    | R.Real x, R.Real y -> Float.equal x y
    | R.Text x, R.Text y -> String.equal x y
    | R.Null, R.Null -> true
    | _ -> false

  let equal (a : t) b =
    let rec go i = i = Array.length a || (equal_value a.(i) b.(i) && go (i + 1)) in
    Array.length a = Array.length b && go 0

  (* Equal values hash alike: an integral float within 2^53 hashes as
     its integer. *)
  let hash_value = function
    | R.Int i when not (wide i) -> Hashtbl.hash i
    | R.Int i -> Hashtbl.hash (float_of_int i)
    | R.Real f when Float.is_integer f && Float.abs f < float_of_int limit ->
      Hashtbl.hash (int_of_float f)
    | R.Real f -> Hashtbl.hash f
    | R.Text s -> Hashtbl.hash s
    | R.Null -> 0

  let hash (k : t) = Array.fold_left (fun h v -> (h * 31) + hash_value v) 0 k land max_int

  (* Can the key join anything at all? *)
  let matchable (k : t) = Array.for_all (function R.Null -> false | _ -> true) k

  (* Does a probe with [k] need SQL [=] re-checked on its candidates? *)
  let coarse (k : t) = Array.exists (function R.Int i -> wide i | _ -> false) k

  let sql_equal (a : t) (b : t) = Array.for_all2 (fun x y -> R.compare_value x y = 0) a b
end

module Jtbl = Hashtbl.Make (Jkey)

(* The key of [exprs] over a row: a fresh array per row. *)
let join_key fnctx exprs =
  let exprs = Array.of_list exprs in
  fun row -> Array.map (fun e -> Expr.eval fnctx ~row ~aggs:[||] e) exprs

(* Pass [f] the inner rows joining the outer row [lrow] by SQL [=]:
   [lookup] lists the candidates of the key's hash class; [left] and
   [right] build the outer and inner keys. *)
let join_matches ~left ~right lookup lrow f =
  let k = left lrow in
  if Jkey.matchable k then
    if Jkey.coarse k then lookup k (fun rrow -> if Jkey.sql_equal k (right rrow) then f rrow)
    else lookup k f

(* Rows a caller keeps between executions, standing in for the scans of
   a core whose joins are all [Hash_join]s (the incremental evaluator,
   Incr): the driving rows that pass its filters, in chain and slot
   order, and per join step the inner rows of a key's hash class, in
   reverse scan order, as the plain build conses them. *)
type kept = {
  k_drive : (R.row -> unit) -> unit;
  k_lookups : (Jkey.t -> (R.row -> unit) -> unit) list;
}

(* The aggregation state of one core: its groups in first-seen order,
   each with its encoded key, its representative row (the first row
   seen: output expressions over non-grouped columns read it) and its
   accumulators.  Without GROUP BY there is one group, keyed "", and no
   per-row key is built or hashed. *)
type group = { g_key : string; g_repr : R.row; g_accs : agg_acc array }

type groups = {
  gs_aggs : agg array;
  gs_key : (R.row -> string) option; (* None: no GROUP BY *)
  gs_tbl : (string, group) Hashtbl.t;
  mutable gs_rev : group list; (* first-seen order, reversed *)
}

let new_groups fnctx (c : Plan.core) =
  let key, size = match c.Plan.c_group with [] -> (None, 1) | es -> (Some (key_fn fnctx es), 64) in
  { gs_aggs = Array.of_list c.Plan.c_aggs; gs_key = key; gs_tbl = Hashtbl.create size; gs_rev = [] }

let find_group gs key =
  match gs.gs_key, gs.gs_rev with
  | None, g :: _ -> Some g
  | None, [] -> None
  | Some _, _ -> Hashtbl.find_opt gs.gs_tbl key

let add_group gs key repr accs =
  let g = { g_key = key; g_repr = repr; g_accs = accs } in
  gs.gs_rev <- g :: gs.gs_rev;
  (match gs.gs_key with Some _ -> Hashtbl.add gs.gs_tbl key g | None -> ());
  g

(* Feed one (filtered) input row, whose group key is [key], to its
   group. *)
let group_step_keyed fnctx gs key row =
  let g =
    match find_group gs key with
    | Some g -> g
    | None -> add_group gs key row (Array.map new_acc gs.gs_aggs)
  in
  for i = 0 to Array.length g.g_accs - 1 do
    acc_step fnctx g.g_accs.(i) row
  done

let group_step fnctx gs row =
  group_step_keyed fnctx gs (match gs.gs_key with None -> "" | Some k -> k row) row

(* --- core output --------------------------------------------------------- *)

let rec passes fnctx filters row =
  match filters with
  | [] -> true
  | r :: rest -> (
    match Expr.truth (Expr.eval fnctx ~row ~aggs:[||] r) with
    | Some true -> passes fnctx rest row
    | Some false | None -> false)

(* One output row and its ORDER BY key, from an input row (or a group's
   representative) and the aggregate values.  [outs] is the core's
   output expressions as an array. *)
let eval_out fnctx (c : Plan.core) outs row aggs =
  let out = Array.make (Array.length outs) R.Null in
  for i = 0 to Array.length outs - 1 do
    out.(i) <- Expr.eval fnctx ~row ~aggs outs.(i)
  done;
  let key =
    match c.Plan.c_order with
    | [] -> [||]
    | keys ->
      Array.of_list
        (List.map
           (fun (k, _) ->
             match k with
             | Plan.Out_col i -> out.(i)
             | Plan.Key_expr e -> Expr.eval fnctx ~row ~aggs e)
           keys)
  in
  (out, key)

(* Push the output rows of [groups] (post-HAVING), in list order.  An
   aggregate without GROUP BY over no input still yields its one row. *)
let emit_group_list fnctx (c : Plan.core) (groups : group list) push =
  let outs = Array.of_list c.Plan.c_out in
  let emit_one repr aggs =
    let keep =
      match c.Plan.c_having with
      | None -> true
      | Some h -> Expr.truth (Expr.eval fnctx ~row:repr ~aggs h) = Some true
    in
    if keep then begin
      let out, key = eval_out fnctx c outs repr aggs in
      push out key
    end
  in
  match groups with
  | [] when c.Plan.c_group = [] ->
    emit_one [||] (Array.of_list (List.map (fun a -> acc_final (new_acc a)) c.Plan.c_aggs))
  | groups -> List.iter (fun g -> emit_one g.g_repr (Array.map acc_final g.g_accs)) groups

(* The tail of a core's pipeline: [produce] pushes (output row, sort key)
   pairs — per input row, or per group when aggregating — and this adds
   DISTINCT, ORDER BY, LIMIT/OFFSET and the instrumentation of the
   aggregate, sort and output operators. *)
let finish_core env (c : Plan.core) (produce : (R.row -> R.row -> unit) -> unit) :
    string array * ((R.row -> unit) -> unit) =
  let fnctx = Db.fn_ctx env.db in
  let instr = env.analyze in
  let order_resolved = c.Plan.c_order in
  let limit =
    Option.map
      (fun e ->
        match Expr.eval_const fnctx e with
        | R.Int n -> n
        | v -> error "LIMIT requires an integer, got %s" (R.value_to_string v))
      c.Plan.c_limit
  in
  let offset =
    match c.Plan.c_offset with
    | None -> 0
    | Some e -> (
      match Expr.eval_const fnctx e with
      | R.Int n -> n
      | v -> error "OFFSET requires an integer, got %s" (R.value_to_string v))
  in
  (* When aggregating, record the groups produced (post-HAVING) and the
     cost of the blocking aggregation stage. *)
  let produce =
    if not (instr && c.Plan.c_has_agg) then produce
    else
      fun push ->
        let sl = c.Plan.c_agg_op.Plan.op_slot in
        sl.Plan.o_loops <- sl.Plan.o_loops + 1;
        let t0 = Exec_stats.now () and p0 = pages_now () in
        produce (fun out key ->
            sl.Plan.o_rows <- sl.Plan.o_rows + 1;
            push out key);
        sl.Plan.o_elapsed_s <- sl.Plan.o_elapsed_s +. (Exec_stats.now () -. t0);
        sl.Plan.o_pages <- sl.Plan.o_pages + (pages_now () - p0)
  in
  let run f =
    let need_sort = order_resolved <> [] in
    let need_distinct = c.Plan.c_distinct in
    if need_sort || need_distinct then begin
      let t_sort = if instr then Exec_stats.now () else 0. in
      let rows = ref [] in
      let seen = Hashtbl.create 64 in
      produce (fun out key ->
          if need_distinct then begin
            let k = R.encode_row out in
            if not (Hashtbl.mem seen k) then begin
              Hashtbl.add seen k ();
              rows := (out, key) :: !rows
            end
          end
          else rows := (out, key) :: !rows);
      let rows = Array.of_list (List.rev !rows) in
      if need_sort then begin
        let cmp (_, ka) (_, kb) =
          let rec go i =
            if i >= Array.length ka then 0
            else
              let _, desc = List.nth order_resolved i in
              let c = R.compare_value ka.(i) kb.(i) in
              if c <> 0 then if desc then -c else c else go (i + 1)
          in
          go 0
        in
        Array.stable_sort cmp rows
      end;
      if instr then begin
        (* rows held by the sort/distinct buffer, inclusive time up to
           and including the sort itself *)
        let sl = c.Plan.c_sort_op.Plan.op_slot in
        sl.Plan.o_loops <- sl.Plan.o_loops + 1;
        sl.Plan.o_rows <- sl.Plan.o_rows + Array.length rows;
        sl.Plan.o_elapsed_s <- sl.Plan.o_elapsed_s +. (Exec_stats.now () -. t_sort)
      end;
      let n = Array.length rows in
      let stop = match limit with Some l -> min n (offset + l) | None -> n in
      for i = offset to stop - 1 do
        f (fst rows.(i))
      done
    end
    else begin
      (* streaming with early stop on LIMIT *)
      let exception Stop in
      let count = ref 0 in
      let emitted = ref 0 in
      (try
         produce (fun out _ ->
             incr count;
             if !count > offset then begin
               (match limit with
               | Some l when !emitted >= l -> raise Stop
               | _ -> ());
               incr emitted;
               f out
             end)
       with Stop -> ())
    end
  in
  (* Final output operator: rows delivered to the consumer (post
     LIMIT/OFFSET), timed inclusively of the whole core. *)
  let run =
    if not instr then run
    else
      fun f ->
        let sl = c.Plan.c_out_op.Plan.op_slot in
        sl.Plan.o_loops <- sl.Plan.o_loops + 1;
        let t0 = Exec_stats.now () and p0 = pages_now () in
        run (fun row ->
            sl.Plan.o_rows <- sl.Plan.o_rows + 1;
            f row);
        sl.Plan.o_elapsed_s <- sl.Plan.o_elapsed_s +. (Exec_stats.now () -. t0);
        sl.Plan.o_pages <- sl.Plan.o_pages + (pages_now () - p0)
  in
  (c.Plan.c_header, run)

(* Count the rows a statement returns. *)
let counted (header, run) =
  ( header,
    fun f ->
      run (fun row ->
          Obs.Scope.incr c_rows_returned;
          f row) )

(* --- subquery expansion and plan evaluation ----------------------------- *)

(* The environment a nested select runs in: its own AS OF if it has one,
   else the enclosing statement's (snapshot queries are statement-wide,
   matching the AS OF semantics of §3). *)
let rec member_env env (sub : select) =
  match sub.as_of with None -> env | Some _ -> env_of_select env.db sub

(* Replace (uncorrelated) subquery nodes by their values: scalar
   subqueries become literals, IN (SELECT ...) becomes a materialized
   set, EXISTS becomes a boolean.  Correlated references fail inside the
   subquery's own resolution with a "no such column" error.  Expansion
   happens per execution — nested selects are planned fresh against the
   environment they run in, and the enclosing cached plan is never
   mutated. *)
and expand_sub env e =
  Expr.map
    (function
      | Subquery sub -> (
        let senv = member_env env sub in
        match select_all senv sub with
        | _, [] -> Lit R.Null
        | header, row :: _ ->
          if Array.length header <> 1 then error "scalar subquery must return a single column";
          Lit row.(0))
      | In_select { subject; sub; negated } ->
        let senv = member_env env sub in
        let header, rows = select_all senv sub in
        if Array.length header <> 1 then
          error "IN (SELECT ...) must return a single column";
        let set = Hashtbl.create (max 16 (List.length rows)) in
        let has_null = ref false in
        List.iter
          (fun (r : R.row) ->
            match r.(0) with
            | R.Null -> has_null := true
            | v -> Hashtbl.replace set (R.encode_row [| v |]) ())
          rows;
        In_set { subject; set; has_null = !has_null; negated }
      | Exists { sub; negated } ->
        let senv = member_env env sub in
        let sub = { sub with limit = Some (Lit (R.Int 1)); order_by = [] } in
        let _, rows = select_all senv sub in
        Expr.of_bool ((rows <> []) <> negated) |> fun v -> Lit v
      | e -> e)
    e

(* Plan and run a SELECT against [env] (the unprepared path). *)
and select_stream env (sel : select) : string array * ((R.row -> unit) -> unit) =
  stream_plan env (fst (Opt.plan env.db ~cat:env.cat sel))

and select_all env sel : string array * R.row list =
  let header, run = select_stream env sel in
  let rows = ref [] in
  run (fun r -> rows := r :: !rows);
  (header, List.rev !rows)

(* Execute a compiled plan against [env].  Parameters must have been
   bound with Plan.bind. *)
and stream_plan env (p : Plan.t) : string array * ((R.row -> unit) -> unit) =
  counted (if p.Plan.p_members = [] then stream_core env p.Plan.p_core else stream_compound env p)

(* UNION / UNION ALL, left-associative as in SQLite: each non-ALL member
   deduplicates everything accumulated so far.  A member with its own
   AS OF is re-planned against its snapshot catalog. *)
and stream_compound env (p : Plan.t) =
  let collect (header, run) =
    let rows = ref [] in
    run (fun r -> rows := r :: !rows);
    (header, List.rev !rows)
  in
  let base =
    { p with Plan.p_members = []; p_corder = []; p_climit = None; p_coffset = None }
  in
  let header, first_rows = collect (stream_plan env base) in
  let dedupe rows =
    let seen = Hashtbl.create 256 in
    List.filter
      (fun r ->
        let k = R.encode_row r in
        if Hashtbl.mem seen k then false
        else begin
          Hashtbl.add seen k ();
          true
        end)
      rows
  in
  let rows =
    List.fold_left
      (fun acc (all, (m : Plan.t)) ->
        let menv, mplan =
          match m.Plan.p_as_of with
          | None -> (env, m)
          | Some _ ->
            let menv = env_of_select env.db m.Plan.p_src in
            (menv, fst (Opt.plan env.db ~cat:menv.cat m.Plan.p_src))
        in
        let mh, mrows = collect (stream_plan menv mplan) in
        if Array.length mh <> Array.length header then
          error "UNION members must return the same number of columns";
        let combined = acc @ mrows in
        if all then combined else dedupe combined)
      first_rows p.Plan.p_members
  in
  let fnctx = Db.fn_ctx env.db in
  let rows =
    if p.Plan.p_corder = [] then rows
    else
      List.stable_sort
        (fun (a : R.row) b ->
          let rec go = function
            | [] -> 0
            | (i, desc) :: rest ->
              let c = R.compare_value a.(i) b.(i) in
              if c <> 0 then if desc then -c else c else go rest
          in
          go p.Plan.p_corder)
        rows
  in
  let limit =
    Option.map
      (fun e ->
        match Expr.eval_const fnctx e with
        | R.Int n -> n
        | v -> error "LIMIT requires an integer, got %s" (R.value_to_string v))
      p.Plan.p_climit
  in
  let offset =
    match p.Plan.p_coffset with
    | None -> 0
    | Some e -> (
      match Expr.eval_const fnctx e with
      | R.Int n -> n
      | v -> error "OFFSET requires an integer, got %s" (R.value_to_string v))
  in
  let rows =
    let rec drop n l = if n <= 0 then l else match l with [] -> [] | _ :: t -> drop (n - 1) t in
    let taken = drop offset rows in
    match limit with
    | None -> taken
    | Some l ->
      let rec take n l =
        if n <= 0 then [] else match l with [] -> [] | h :: t -> h :: take (n - 1) t
      in
      take l taken
  in
  (header, fun f -> List.iter f rows)

(* Evaluate one plan core: FROM pipeline, then projection, aggregation,
   DISTINCT, ORDER BY and LIMIT.  With [kept], the FROM pipeline reads
   the caller's rows instead of scanning the driving table and building
   the hash joins' inner tables (the caller instruments the scan). *)
and stream_core ?kept env (c : Plan.core) : string array * ((R.row -> unit) -> unit) =
  let fnctx = Db.fn_ctx env.db in
  (* Expand uncorrelated subqueries against this execution's environment
     (fresh copy of the core; the cached plan stays pristine). *)
  let c = Plan.map_core (expand_sub env) c in
  let feval row e = Expr.eval fnctx ~row ~aggs:[||] e in
  let join_key = join_key fnctx in
  (* per-row paths allocate no closures *)
  let pass = passes fnctx in
  let instr = env.analyze in
  (* Instrumentation wrappers.  All three are decided at pipeline
     construction time: with [analyze] off they return their argument
     unchanged, so the executed closure chain is the uninstrumented one
     (zero-overhead path).

     [stage] records rows produced, loops, and elapsed/page-read cost
     inclusive of upstream stages (Postgres EXPLAIN ANALYZE node
     semantics): the bracket around the whole emit run minus the time
     and pages observed inside the downstream consumer callback. *)
  let stage (op : Plan.op) emit =
    if not instr then emit
    else
      fun f ->
        let sl = op.Plan.op_slot in
        sl.Plan.o_loops <- sl.Plan.o_loops + 1;
        let t0 = Exec_stats.now () and p0 = pages_now () in
        let down_t = ref 0. and down_p = ref 0 in
        emit (fun row ->
            sl.Plan.o_rows <- sl.Plan.o_rows + 1;
            let ti = Exec_stats.now () and pi = pages_now () in
            f row;
            down_t := !down_t +. (Exec_stats.now () -. ti);
            down_p := !down_p + (pages_now () - pi));
        sl.Plan.o_elapsed_s <- sl.Plan.o_elapsed_s +. (Exec_stats.now () -. t0 -. !down_t);
        sl.Plan.o_pages <- sl.Plan.o_pages + (pages_now () - p0 - !down_p)
  in
  (* One probe per outer row driven into a lookup-style join. *)
  let probed (op : Plan.op) emit =
    if not instr then emit
    else
      fun f ->
        emit (fun row ->
            op.Plan.op_slot.Plan.o_probes <- op.Plan.op_slot.Plan.o_probes + 1;
            f row)
  in
  (* Charge inner-side build cost (hash table / materialization, done
     once at pipeline construction) to the join operator. *)
  let charge_build (op : Plan.op) build =
    if not instr then build ()
    else begin
      let sl = op.Plan.op_slot in
      let t0 = Exec_stats.now () and p0 = pages_now () in
      build ();
      sl.Plan.o_elapsed_s <- sl.Plan.o_elapsed_s +. (Exec_stats.now () -. t0);
      sl.Plan.o_pages <- sl.Plan.o_pages + (pages_now () - p0)
    end
  in
  let emit =
    match c.Plan.c_from with
    | _ when c.Plan.c_empty -> fun _f -> ()
    | Plan.From_none -> fun f -> f [||]
    | Plan.From_scan { first; joins; residual } ->
      let t0 = first.Plan.sc_src.Plan.s_tbl in
      let decode0, join_decoders =
        match List.map R.decode_cols (Plan.projections c) with
        | d :: ds -> (d, ds)
        | [] -> (R.decode_bytes, [])
      in
      let emit0 f =
        match kept, first.Plan.sc_access with
        | Some k, _ -> k.k_drive f
        | None, Plan.Index_search { ix; bounds } ->
          index_scan env t0 ix (eval_bounds fnctx bounds) ~f:(fun rid ->
              match fetch_row env t0 ~decode:decode0 rid with
              | Some row -> if pass first.Plan.sc_filters row then f row
              | None -> ())
        | None, Plan.Seq_scan ->
          scan_rows env t0 ~decode:decode0 ~f:(fun _rid row ->
              if pass first.Plan.sc_filters row then f row)
      in
      let emit0 = if Option.is_none kept then stage first.Plan.sc_op emit0 else emit0 in
      let add_join emit ((js : Plan.join_step), decode, lookup) =
        let t = js.Plan.j_src.Plan.s_tbl in
        let scan_rows env t ~f = scan_rows env t ~decode ~f in
        (* a hash table of the (filtered) inner rows by join key, the
           automatic-index analogue, timed as index build; rows whose key
           holds a NULL join nothing and stay out *)
        let hash_inner ~right filters =
          let tbl : R.row list ref Jtbl.t = Jtbl.create 1024 in
          charge_build js.Plan.j_op (fun () ->
              Exec_stats.time_index (fun () ->
                  scan_rows env t ~f:(fun _rid row ->
                      if pass filters row then
                        let k = right row in
                        if Jkey.matchable k then
                          match Jtbl.find_opt tbl k with
                          | Some l -> l := row :: !l
                          | None -> Jtbl.add tbl k (ref [ row ]))));
          tbl
        in
        match js.Plan.j_plan with
        | Plan.Left_hash { equi; inner_filters; residual } ->
          let n_inner = Array.length t.Catalog.tcols in
          let nulls = Array.make n_inner R.Null in
          let right = join_key (List.map snd equi) and left = join_key (List.map fst equi) in
          let candidates =
            if equi = [] then begin
              let all_inner = ref [] in
              charge_build js.Plan.j_op (fun () ->
                  Exec_stats.time_index (fun () ->
                      scan_rows env t ~f:(fun _rid row ->
                          if pass inner_filters row then all_inner := row :: !all_inner)));
              let all_inner = List.rev !all_inner in
              fun _lrow f -> List.iter f all_inner
            end
            else begin
              let tbl = hash_inner ~right inner_filters in
              (* a bucket holds its rows in reverse scan order *)
              let lookup k f =
                match Jtbl.find_opt tbl k with Some l -> List.iter f (List.rev !l) | None -> ()
              in
              join_matches ~left ~right lookup
            end
          in
          let emit = probed js.Plan.j_op emit in
          fun f ->
            emit (fun lrow ->
                let matched = ref false in
                candidates lrow (fun rrow ->
                    let row = Array.append lrow rrow in
                    if pass residual row then begin
                      matched := true;
                      f row
                    end);
                if not !matched then f (Array.append lrow nulls))
        | Plan.Nested_loop { filters } ->
          (* cross/theta join: materialize the (filtered) inner table *)
          let inner = ref [] in
          charge_build js.Plan.j_op (fun () ->
              scan_rows env t ~f:(fun _rid row -> if pass filters row then inner := row :: !inner));
          let inner = Array.of_list (List.rev !inner) in
          fun f -> emit (fun lrow -> Array.iter (fun rrow -> f (Array.append lrow rrow)) inner)
        | Plan.Index_probe { ix; equi; filters } ->
          let left_keys = List.map fst equi in
          let bt = Storage.Btree.open_existing ix.Catalog.iroot in
          let emit = probed js.Plan.j_op emit in
          fun f ->
            emit (fun lrow ->
                let kv = Array.of_list (List.map (fun e -> feval lrow e) left_keys) in
                (* SQL [=]: a NULL key matches no entry, NULL ones included *)
                if Jkey.matchable kv then
                  Storage.Btree.lookup env.read bt kv ~f:(fun rid ->
                      match fetch_row env t ~decode rid with
                      | Some rrow -> if pass filters rrow then f (Array.append lrow rrow)
                      | None -> ()))
        | Plan.Hash_join { equi; filters } ->
          (* automatic ephemeral index over the inner table (SQLite's
             covering-index analogue); built once per execution, unless
             the caller keeps it *)
          let right = join_key (List.map snd equi) and left = join_key (List.map fst equi) in
          let lookup =
            match lookup with
            | Some lookup -> lookup
            | None ->
              let tbl = hash_inner ~right filters in
              fun k f -> match Jtbl.find_opt tbl k with Some l -> List.iter f !l | None -> ()
          in
          let matches = join_matches ~left ~right lookup in
          let emit = probed js.Plan.j_op emit in
          fun f -> emit (fun lrow -> matches lrow (fun rrow -> f (Array.append lrow rrow)))
      in
      let lookups =
        match kept with
        | Some k -> List.map Option.some k.k_lookups
        | None -> List.map (fun _ -> None) joins
      in
      let emit =
        List.fold_left2
          (fun emit (js, decode) lookup -> stage js.Plan.j_op (add_join emit (js, decode, lookup)))
          emit0 (List.combine joins join_decoders) lookups
      in
      let filtered f = emit (fun row -> if pass residual row then f row) in
      if residual = [] then filtered else stage c.Plan.c_filter_op filtered
  in
  let produce push =
    if c.Plan.c_has_agg then begin
      let gs = new_groups fnctx c in
      emit (fun row -> group_step fnctx gs row);
      emit_group_list fnctx c (List.rev gs.gs_rev) push
    end
    else begin
      let outs = Array.of_list c.Plan.c_out in
      emit (fun row ->
          let out, key = eval_out fnctx c outs row [||] in
          push out key)
    end
  in
  finish_core env c produce

(* --- DML ------------------------------------------------------------------ *)

(* A table as its row writers need it, resolved once for a batch of
   writes: its entry, its heap handle, and each index with the row
   positions of its key. *)
type writer = {
  w_tbl : Catalog.table;
  w_heap : Storage.Heap.t;
  w_indexes : (Storage.Btree.t * int array) list;
}

let writer env (tbl : Catalog.table) =
  { w_tbl = tbl;
    w_heap = Db.heap_handle env.db tbl.theap;
    w_indexes =
      List.map
        (fun idx ->
          ( Storage.Btree.open_existing idx.Catalog.iroot,
            Array.of_list (List.map (Planner.col_pos tbl) idx.Catalog.icols) ))
        (Catalog.indexes_of_table env.cat tbl.tname) }

let key_at pos (row : R.row) = Array.map (fun i -> row.(i)) pos

(* [row]'s key on columns [pos]; too long a key is the statement's error. *)
let fitting_key (tbl : Catalog.table) pos (row : R.row) =
  let k = key_at pos row in
  let n = R.row_size k and most = Storage.Btree.max_key in
  if n > most then
    error "index key too large: a key of %s is %d bytes (at most %d)" tbl.tname n most;
  k

(* [row]'s bytes and index keys, measured before any page is touched. *)
let encode_for w (row : R.row) =
  let s = R.encode_row row in
  let n = String.length s and most = Storage.Heap.max_record in
  if n > most then
    error "record larger than a page: a row of %s is %d bytes (at most %d)" w.w_tbl.tname n most;
  (s, List.map (fun (bt, pos) -> (bt, fitting_key w.w_tbl pos row)) w.w_indexes)

(* [row] as a new row of the writer's table: its arity checked, then
   [encode_for]. *)
let measure w (row : R.row) =
  let tbl = w.w_tbl in
  if Array.length row <> Array.length tbl.tcols then
    error "table %s expects %d values, got %d" tbl.tname (Array.length tbl.tcols)
      (Array.length row);
  encode_for w row

(* Store a [measure]d row in the writer's table, its index entries right
   after it; returns its rid.  A statement that writes several rows
   measures them all first, so that a row that cannot be stored fails
   it before any is. *)
let insert_encoded txn w (s, keys) =
  let rid = Storage.Heap.insert txn w.w_heap s in
  List.iter (fun (bt, k) -> Storage.Btree.insert txn bt k rid) keys;
  rid

let insert_row txn w (row : R.row) = insert_encoded txn w (measure w row)

(* Rows (with rids) matching [where] on a single table, using an index
   when one applies.  Materialized to allow subsequent mutation.
   Subqueries are expanded before planning, so subquery-derived
   constants stay sargable here. *)
let matching_rows env (tbl : Catalog.table) (where : expr option) =
  let fnctx = Db.fn_ctx env.db in
  let where = Option.map (expand_sub env) where in
  let sc = Planner.plan_table ~cat:env.cat ~fnctx tbl where in
  let keep row =
    List.for_all
      (fun r -> Expr.truth (Expr.eval fnctx ~row ~aggs:[||] r) = Some true)
      sc.Plan.sc_filters
  in
  let out = ref [] in
  (* DML rewrites and re-indexes whole rows: decode every column *)
  let decode = R.decode_bytes in
  (match sc.Plan.sc_access with
  | Plan.Index_search { ix; bounds } ->
    index_scan env tbl ix (eval_bounds fnctx bounds) ~f:(fun rid ->
        match fetch_row env tbl ~decode rid with
        | Some row -> if keep row then out := (rid, row) :: !out
        | None -> ())
  | Plan.Seq_scan ->
    scan_heap env tbl ~decode ~f:(fun rid row -> if keep row then out := (rid, row) :: !out));
  List.rev !out

let delete_rows txn w rows =
  List.iter
    (fun (rid, row) ->
      ignore (Storage.Heap.delete txn w.w_heap rid);
      List.iter
        (fun (bt, pos) -> ignore (Storage.Btree.delete txn bt (key_at pos row) rid))
        w.w_indexes)
    rows;
  List.length rows

(* Rewrite row [rid], which holds [row], as a row encoded by
   [encode_for]: the counterpart of {!insert_encoded}.  Every index entry
   whose key or rid changed follows the row, which may have moved to
   another page.  Returns its rid. *)
let update_encoded txn w ~rid (row : R.row) (s, keys') =
  let rid' =
    match Storage.Heap.update txn w.w_heap rid s with
    | `Same -> rid
    | `Moved r -> r
  in
  List.iter2
    (fun (_, pos) (bt, k') ->
      let k = key_at pos row in
      if rid <> rid' || R.compare_row k k' <> 0 then begin
        ignore (Storage.Btree.delete txn bt k rid);
        Storage.Btree.insert txn bt k' rid'
      end)
    w.w_indexes keys';
  rid'

let update_row txn w ~rid (row : R.row) (row' : R.row) =
  update_encoded txn w ~rid row (encode_for w row')

(* Every new row is evaluated and measured before the first is written
   back, so that a row that fails fails the statement before any
   write. *)
let update_rows env txn (tbl : Catalog.table) sets rows =
  let fnctx = Db.fn_ctx env.db in
  let sets =
    List.map
      (fun (c, e) -> (Planner.col_pos tbl c, Planner.resolve_against_table tbl (expand_sub env e)))
      sets
  in
  let w = writer env tbl in
  let encoded =
    List.map
      (fun (rid, row) ->
        let row' = Array.copy row in
        List.iter (fun (i, e) -> row'.(i) <- Expr.eval fnctx ~row ~aggs:[||] e) sets;
        (rid, row, encode_for w row'))
      rows
  in
  List.iter (fun (rid, row, e) -> ignore (update_encoded txn w ~rid row e)) encoded;
  List.length rows
