(* RQL: retrospective computations over snapshot sets (paper §2-3).

   An RQL computation iterates over the snapshot set returned by a
   snapshot query Qs, and for each snapshot executes a "loop body" that
   binds Qq to that snapshot (AS OF the snapshot, current_snapshot() its
   id), runs it, and processes the result rows in a mechanism-specific
   way:

   - CollateData(Qs, Qq, T)                    collect rows into T
   - AggregateDataInVariable(Qs, Qq, T, fn)    fold a single value
   - AggregateDataInTable(Qs, Qq, T, pairs)    cross-snapshot GROUP BY
   - CollateDataIntoIntervals(Qs, Qq, T)       record-lifetime intervals

   As in the paper, SnapIds and the result tables live in a separate
   non-snapshottable database, and the mechanisms are also registered as
   UDFs on that database so they can be invoked in the paper's SQL form:

     SELECT CollateData(snap_id, '<Qq>', 'Result') FROM SnapIds WHERE ...;

   Aggregation functions must form an abelian monoid (Monoid.t); AVG is
   supported as the paper's special case via hidden (sum, count)
   columns maintained in the result table.  Both aggregation mechanisms
   fold with the executor's accumulator (Exec.acc_add), so an RQL
   aggregate equals the SQL aggregate over the snapshots' Qq answers. *)

module R = Storage.Record
module Sq = Sqldb

(* Re-export the companion modules: [rql.ml] is the library root, so
   these are only reachable through it. *)
module Monoid = Sqldb.Monoid
module Iter_stats = Iter_stats

exception Error = Sqldb.Engine.Error

(* A run stopped by {!Obs.Progress.request_cancel}: the loop checks the
   flag once per iteration, so every completed iteration is durable (each
   is transactionally self-contained) and [iterations_done] is exact. *)
exception
  Cancelled of { mechanism : string; iterations_done : int; run_id : int }

let error = Sq.Sql_error.error

type mech_kind =
  | Collate
  | Agg_var of Monoid.t
  | Agg_table of (string * Monoid.t) list
  | Intervals

let mech_name = function
  | Collate -> "CollateData"
  | Agg_var _ -> "AggregateDataInVariable"
  | Agg_table _ -> "AggregateDataInTable"
  | Intervals -> "CollateDataIntoIntervals"

(* A row of T as the loop bodies that rewrite rows (every mechanism but
   CollateData) know it without reading T: its rid and its stored
   values.  [closing] marks an open interval a delta leaves
   closed, until it is applied. *)
type slot = { mutable rid : int; mutable row : R.row; mutable closing : bool }

(* One stripe of the snapshot loop: the parameterized Qq prepared on
   one session, and the stripe's own delta evaluator (None: every
   snapshot runs on the ordinary executor).  A stripe evaluates its
   snapshots in loop order, each a delta from the stripe's previous
   one. *)
type stripe = { prep : Sq.Engine.prepared; incr : Sq.Incr.t option }

(* An AggregateDataInTable aggregate: the executor's spec of its
   function, its column (the same position in the Qq row and in T) and,
   for AVG, the positions of T's hidden sum and count columns. *)
type agg_col = { pos : int; spec : Sq.Ast.agg; avg : (int * int) option }

type run_state = {
  kind : mech_kind;
  qq : string;
  table : string;
  data : Sq.Db.t;
  meta : Sq.Db.t;
  eval : Sq.Db.t; (* the ctx's evaluation session over [data] *)
  mutable inline : stripe; (* the one-stripe case: the Qq on [eval] *)
  rs_analyze : bool; (* per-operator instrumentation for this run *)
  rs_all_cold : bool; (* every iteration starts from an empty page cache *)
  t_start : float; (* wall-clock run start; anchors the modeled trace track *)
  mutable iterations : Iter_stats.iteration list; (* reversed *)
  mutable last_sid : int option; (* the last applied snapshot; None before the first *)
  mutable header : string array;
  mutable group_pos : int array;             (* grouping column positions (Qq output) *)
  mutable agg_cols : agg_col list;           (* Agg_table's aggregates *)
  (* The map of the rows of T that the run rewrites (every mechanism
     but CollateData): every row of T by its grouping columns
     ([row_key]), rids ascending; and the meta pager's install count
     when the map last matched T's committed state (None: rebuild it
     from T before use). *)
  slots : (string, slot list) Hashtbl.t;
  mutable slots_at : int option;
  (* The rows the first iteration stored, newest first, until it builds
     __rql_key from them ([post_first]). *)
  mutable first_rows : slot list;
  (* The intervals the last iteration extended or opened, in the order
     it did (about T's page order): while the map is trusted, exactly
     those ending at [last_sid], unless [prev_repeated]. *)
  mutable open_ivs : slot array;
  applied : (int, unit) Hashtbl.t; (* the snapshots applied so far *)
  mutable prev_repeated : bool; (* [last_sid] was applied more than once *)
  var_acc : Sq.Exec.agg_acc; (* AggregateDataInVariable's running value *)
  (* per-iteration loop-body operation counters *)
  mutable cur_rows : int;
  mutable cur_inserts : int;
  mutable cur_updates : int;
  (* Live progress handle (sys_progress / .progress / .cancel). *)
  mutable rs_progress : Obs.Progress.t option;
  mutable rs_failed : bool; (* an iteration raised: keep no evaluator *)
}

(* Finished runs' delta evaluators, each under its Qq's plan-cache key,
   the most recently kept first; together they keep at most
   {!Sq.Incr.default_max_rows} rows.  Domains that share a ctx take and
   keep them under [mu]. *)
type warm = { mu : Mutex.t; mutable entries : (string * Sq.Incr.t) list }

type ctx = {
  data : Sq.Db.t;
  meta : Sq.Db.t;
  (* A private session over [data] that evaluates every one-stripe Qq:
     its scope measures exactly the Qq's work, and its plan cache keeps
     prepared Qq plans across runs. *)
  eval : Sq.Db.t;
  runs : (string, run_state) Hashtbl.t; (* active SQL-form UDF runs *)
  warm : warm;
}

(* --- helpers --------------------------------------------------------- *)

let now = Unix.gettimeofday

(* Bind Qq to a snapshot parameter, once, on the AST: every
   current_snapshot() call (or bare identifier use) becomes parameter 0
   and AS OF ? is attached to the outermost select, replacing any AS OF
   the Qq carried (W106).  Each iteration then binds its snapshot id
   instead of re-parsing text. *)
let parameterize (sel : Sq.Ast.select) : Sq.Ast.select =
  let open Sq.Ast in
  let is_cs name = String.lowercase_ascii name = "current_snapshot" in
  let subst = function
    | Call (name, []) when is_cs name -> Param 0
    | Col (None, name) when is_cs name -> Param 0
    | e -> e
  in
  { (Sq.Expr.map_select subst sel) with as_of = Some (Param 0) }

let qq_key qq = "rql-qq:" ^ qq

(* Prepare the parameterized Qq on session [sess] under a stable
   plan-cache key.  Total: a Qq that cannot be prepared raises a typed
   error before any snapshot is read. *)
let prepare_qq sess qq =
  match Sq.Engine.parse qq with
  | Sq.Ast.Select sel -> (
    try Sq.Engine.prepare_select sess ~key:(qq_key qq) (parameterize sel)
    with Sq.Engine.Error msg -> error "Qq rejected: %s" msg)
  | _ -> error "Qq must be a SELECT statement"
  | exception Sq.Engine.Error msg -> error "Qq rejected: %s" msg

let create_result_table (rs : run_state) cols =
  ignore (Sq.Engine.drop_table rs.meta ~name:rs.table ~if_exists:true);
  ignore (Sq.Engine.drop_index rs.meta ~name:(rs.table ^ "__rql_key") ~if_exists:true);
  if Sq.Engine.create_table rs.meta ~name:rs.table ~cols ~if_not_exists:false = None then
    error "could not create result table %s" rs.table

let norm = String.lowercase_ascii

let agg_spec fn = { Sq.Ast.agg_fn = fn; agg_arg = None; agg_distinct = false }

(* T's columns, as the run's header and aggregates lay them out. *)
let result_cols (rs : run_state) =
  let visible = Array.to_list (Array.map (fun h -> (h, "")) rs.header) in
  match rs.kind with
  | Collate -> visible
  | Agg_var _ -> [ ((if rs.header.(0) = "" then "value" else rs.header.(0)), "") ]
  | Agg_table _ ->
    (* visible columns, then hidden (sum, count) pairs for AVG *)
    visible
    @ List.concat_map
        (fun c ->
          if c.avg = None then []
          else
            [ (Printf.sprintf "__avg_sum_%s" rs.header.(c.pos), "");
              (Printf.sprintf "__avg_cnt_%s" rs.header.(c.pos), "") ])
        rs.agg_cols
  | Intervals -> visible @ [ ("start_snapshot", ""); ("end_snapshot", "") ]

(* --- first-iteration initialization --------------------------------- *)

let init_run (rs : run_state) (header : string array) =
  rs.header <- header;
  Hashtbl.reset rs.slots;
  rs.first_rows <- [];
  (match rs.kind with
  | Collate -> ()
  | Agg_var _ ->
    if Array.length header <> 1 then
      error "AggregateDataInVariable: Qq must return a single column (got %d)"
        (Array.length header)
  | Agg_table pairs ->
    let find_pos c =
      let rec go i =
        if i >= Array.length header then
          error "AggregateDataInTable: Qq output has no column %s" c
        else if norm header.(i) = norm c then i
        else go (i + 1)
      in
      go 0
    in
    let next = ref (Array.length header) in
    rs.agg_cols <-
      List.map
        (fun (c, fn) ->
          let avg =
            if fn = Monoid.Avg then begin
              next := !next + 2;
              Some (!next - 2, !next - 1)
            end
            else None
          in
          { pos = find_pos c; spec = agg_spec fn; avg })
        pairs;
    let agg_pos = List.map (fun c -> c.pos) rs.agg_cols in
    rs.group_pos <-
      Array.of_list
        (List.filter
           (fun i -> not (List.mem i agg_pos))
           (List.init (Array.length header) (fun i -> i)))
  | Intervals -> rs.group_pos <- Array.init (Array.length header) (fun i -> i));
  create_result_table rs (result_cols rs)

(* Index creation at the end of the first iteration (paper §3): the key
   is the grouping columns of the result table.  The first iteration
   created T and stored every row it holds, so the index is built from
   those rows and their current rids, in the order they were stored
   (about Qq's order, so nearly sorted), without reading T. *)
let post_first (rs : run_state) =
  let rows = Array.of_list (List.rev_map (fun (s : slot) -> (s.row, s.rid)) rs.first_rows) in
  rs.first_rows <- [];
  match rs.kind with
  | Collate | Agg_var _ -> ()
  | Agg_table _ | Intervals ->
    if rs.group_pos <> [||] then
      Sq.Engine.create_index_of_rows rs.meta ~name:(rs.table ^ "__rql_key") ~table:rs.table
        ~columns:(Array.to_list (Array.map (fun i -> rs.header.(i)) rs.group_pos))
        rows

(* --- T, as one iteration finds it ---------------------------------------- *)

(* T resolved from the meta catalog: the writer every write of the
   iteration goes through (T's entry, its heap and its indexes), and
   whether an interval's end_snapshot may be patched in place, which
   holds while no index of T covers it.  Each iteration
   resolves T afresh: between two SQL-form statements the user may have
   indexed, dropped or re-created it. *)
type target = {
  w : Sq.Exec.writer;
  patch : bool;
}

let resolve (rs : run_state) =
  let env = Sq.Exec.current_env rs.meta in
  let width = List.length (result_cols rs) in
  match Sq.Catalog.find_table env.Sq.Exec.cat rs.table with
  | None -> error "%s: result table %s does not exist" (mech_name rs.kind) rs.table
  | Some tbl when Array.length tbl.Sq.Catalog.tcols <> width ->
    error "%s: result table %s has %d columns, the run writes %d" (mech_name rs.kind) rs.table
      (Array.length tbl.Sq.Catalog.tcols) width
  | Some tbl ->
    let covers_end (ix : Sq.Catalog.index) = List.exists (fun c -> norm c = "end_snapshot") ix.icols in
    { w = Sq.Exec.writer env tbl;
      patch = not (List.exists covers_end (Sq.Catalog.indexes_of_table env.Sq.Exec.cat rs.table)) }

(* --- the map of T's rows ------------------------------------------------ *)

(* The map keys a row by the encoding of its values at [group_pos] (the
   grouping columns; for intervals every Qq column), with every REAL
   equal to an INTEGER written as that INTEGER and every NaN as one NaN:
   rows the __rql_key index holds equal (1 = 1.0, -0.0 = 0.0) share a
   key.  Qq rows and T rows hold those columns at the same positions. *)
let row_key (rs : run_state) (row : R.row) =
  let canon = function
    | R.Real f when Float.is_integer f && Float.abs f < 0x1p62 -> R.Int (int_of_float f)
    | R.Real f when Float.is_nan f -> R.Real Float.nan
    | v -> v
  in
  R.encode_row (Array.map (fun i -> canon row.(i)) rs.group_pos)

(* A key's slots stay in rid order, the order __rql_key lists the key's
   rids in: its entries are (key, rid) composites.  So a key's first
   slot is the row the index lists first for the key. *)
let rec add_slot (s : slot) = function
  | x :: rest when x.rid < s.rid -> x :: add_slot s rest
  | l -> s :: l

(* A key's slots, rids ascending. *)
let slots_of (rs : run_state) key = Option.value (Hashtbl.find_opt rs.slots key) ~default:[]

(* The map from one scan of T, read through [txn]. *)
let rebuild_slots (rs : run_state) (t : target) txn =
  Hashtbl.reset rs.slots;
  Storage.Heap.iter_spans (Storage.Txn.read_ctx txn) t.w.Sq.Exec.w_heap ~f:(fun rid p off len ->
      let row = R.decode_bytes p ~off ~len in
      let key = row_key rs row in
      Hashtbl.replace rs.slots key (add_slot { rid; row; closing = false } (slots_of rs key)))

(* Store [t_row] as a new row of T, filed under [key] beside the key's
   [slots]. *)
let add_row (rs : run_state) (t : target) txn ~key ~slots (t_row : R.row) =
  let s = { rid = Sq.Exec.insert_row txn t.w t_row; row = t_row; closing = false } in
  Hashtbl.replace rs.slots key (add_slot s slots);
  if rs.last_sid = None then rs.first_rows <- s :: rs.first_rows;
  s

(* [add_row], counted as an insert of the loop body. *)
let insert_new (rs : run_state) t txn ~key ~slots t_row =
  rs.cur_inserts <- rs.cur_inserts + 1;
  add_row rs t txn ~key ~slots t_row

(* --- row processing --------------------------------------------------- *)

(* Fold aggregate [c] of a Qq row into [acc], and store the result (and
   AVG's hidden sum and count) in T row [out]. *)
let fold_agg c acc (out : R.row) (row : R.row) =
  Sq.Exec.acc_add acc row.(c.pos);
  out.(c.pos) <- Sq.Exec.acc_final acc;
  match c.avg with
  | Some (s, n) ->
    let sum, count = Sq.Exec.acc_avg_state acc in
    out.(s) <- sum;
    out.(n) <- count
  | None -> ()

(* The T row stored when a group is seen for the first time. *)
let first_row (rs : run_state) ~sid (row : R.row) : R.row =
  match rs.kind with
  | Agg_table _ ->
    let n_hidden = List.fold_left (fun n c -> if c.avg = None then n else n + 2) 0 rs.agg_cols in
    let out = Array.make (Array.length row + n_hidden) R.Null in
    Array.blit row 0 out 0 (Array.length row);
    List.iter (fun c -> fold_agg c (Sq.Exec.new_acc c.spec) out row) rs.agg_cols;
    out
  | Intervals -> Array.append row [| R.Int sid; R.Int sid |]
  | Collate | Agg_var _ -> row

(* Combine a fresh Qq row into the stored accumulator row: each
   aggregate resumes from its stored result. *)
let combined_row (rs : run_state) (stored : R.row) (row : R.row) : R.row =
  let out = Array.copy stored in
  List.iter
    (fun c ->
      let acc =
        match c.avg with
        | Some (s, n) -> Sq.Exec.acc_resume_avg c.spec ~sum:stored.(s) ~count:stored.(n)
        | None -> Sq.Exec.acc_resume c.spec stored.(c.pos)
      in
      fold_agg c acc out row)
    rs.agg_cols;
  out

(* Rewrite T row [s] as [row']. *)
let write_back (t : target) txn (s : slot) (row' : R.row) =
  s.rid <- Sq.Exec.update_row txn t.w ~rid:s.rid s.row row';
  s.row <- row'

(* Fold a Qq row into its group's row of T, the first one if T holds
   several (the map's and the index's first), or store a new row: T
   holds one row per group, as GROUP BY over CollateData's rows would. *)
let step_agg_table (rs : run_state) t txn ~sid (row : R.row) =
  rs.cur_rows <- rs.cur_rows + 1;
  let key = row_key rs row in
  match slots_of rs key with
  | s :: rest ->
    let row' = combined_row rs s.row row in
    (* write back only when the accumulator changed: this is why hot
       iterations with MAX are much cheaper than with SUM (Fig 13).  A
       change of type alone (an INTEGER sum that a REAL 0 made REAL)
       is a change. *)
    if not (R.same_row row' s.row) then begin
      let rid = s.rid in
      write_back t txn s row';
      if s.rid <> rid then Hashtbl.replace rs.slots key (add_slot s rest);
      rs.cur_updates <- rs.cur_updates + 1
    end
  | [] -> ignore (insert_new rs t txn ~key ~slots:[] (first_row rs ~sid row))

(* An interval's end_snapshot, its row's last value. *)
let end_of (iv : slot) = iv.row.(Array.length iv.row - 1)

(* The previous snapshot of the run, -1 before the first. *)
let prev_sid (rs : run_state) = Option.value rs.last_sid ~default:(-1)

let open_at_prev (rs : run_state) iv = match end_of iv with R.Int e -> e = prev_sid rs | _ -> false

(* Extend [iv], which ends at the previous snapshot, to [sid] ([last]
   is [R.Int sid]).  While no index of T covers end_snapshot, its 8
   payload bytes are patched in place; otherwise the row is rewritten
   through the executor, which moves the index entries. *)
let extend (rs : run_state) (t : target) txn ~sid ~last iv =
  let prev = prev_sid rs in
  if t.patch then begin
    let patched =
      Storage.Heap.write_span txn t.w.Sq.Exec.w_heap iv.rid ~f:(fun p off len ->
          if R.int_at p (off + len - 9) = prev then
            Bytes.set_int64_le p (off + len - 8) (Int64.of_int sid)
          else error "CollateDataIntoIntervals: result rid %d does not end at %d" iv.rid prev)
    in
    if patched = None then error "CollateDataIntoIntervals: dangling result rid %d" iv.rid;
    iv.row.(Array.length iv.row - 1) <- last
  end
  else begin
    let row' = Array.copy iv.row in
    row'.(Array.length row' - 1) <- last;
    write_back t txn iv row'
  end;
  rs.cur_updates <- rs.cur_updates + 1

(* The paper's rule: the first row of T holding this Qq row whose
   interval ends at the previous snapshot is extended to [sid];
   otherwise a new interval starts.  The row to extend comes from the
   map, and its end_snapshot (an INTEGER: a tag and 8 payload bytes,
   the row's last) is rewritten ([extend]), so T is never searched or
   read.  Returns the interval it extended or opened. *)
let step_intervals (rs : run_state) t txn ~sid ~first (row : R.row) =
  rs.cur_rows <- rs.cur_rows + 1;
  let key = row_key rs row in
  let slots = slots_of rs key in
  match if first then None else List.find_opt (open_at_prev rs) slots with
  | Some iv ->
    extend rs t txn ~sid ~last:(R.Int sid) iv;
    iv
  | None -> insert_new rs t txn ~key ~slots (first_row rs ~sid row)

(* The rule applied to a delta from the previous snapshot, whose output
   changes are [before] -> [after] (Incr.changes).  The open intervals
   are those ending at the previous snapshot, and a key has exactly as
   many of them as the previous snapshot had rows of the key; the rule
   extends a key's first open intervals (rid order), one per row of the
   key in this snapshot, and opens a new one per row beyond them.  Only
   the net change per key matters, then:
   - a key that lost c rows leaves its last c open intervals closed;
   - a key that gained rows and has no open interval opens one per row,
     and all its rows are in [after], in scan order;
   - a key that gained rows and has open intervals would open intervals
     for rows at positions the delta does not know: no plan.
   Every other open interval is extended. *)
type delta_plan = {
  to_close : slot list; (* the open intervals left closed *)
  net : (string, int) Hashtbl.t; (* key -> net change in its rows *)
  after : R.row list;
  rows : int; (* the snapshot's Qq rows *)
}

let delta_plan (rs : run_state) (ch : Sq.Incr.changes) =
  let net = Hashtbl.create 64 in
  let count d row =
    let key = row_key rs row in
    Hashtbl.replace net key (d + Option.value (Hashtbl.find_opt net key) ~default:0)
  in
  List.iter (count (-1)) ch.Sq.Incr.before;
  List.iter (count 1) ch.Sq.Incr.after;
  let exception Gained_with_open in
  match
    Hashtbl.fold
      (fun key d closing ->
        if d = 0 then closing
        else
          let ivs = List.filter (open_at_prev rs) (slots_of rs key) in
          if d > 0 then if ivs = [] then closing else raise Gained_with_open
          else begin
            let m = List.length ivs in
            if m < -d then
              error "CollateDataIntoIntervals: %d rows of a key left, %d intervals were open" (-d) m;
            List.filteri (fun i _ -> i >= m + d) ivs @ closing
          end)
      net []
  with
  | exception Gained_with_open -> None
  | closing ->
    let rows =
      Array.length rs.open_ivs + List.length ch.Sq.Incr.after - List.length ch.Sq.Incr.before
    in
    Some { to_close = closing; net; after = ch.Sq.Incr.after; rows }

(* Carry out [plan]: patch the end of every open interval but the
   closing ones in place, in the open set's order, then open the new
   intervals in scan order.  Returns the intervals now ending at [sid],
   in that order. *)
let apply_delta (rs : run_state) t txn ~sid plan =
  rs.cur_rows <- plan.rows;
  let last = R.Int sid and closed = ref 0 in
  List.iter (fun iv -> iv.closing <- true) plan.to_close;
  let extended =
    Array.fold_left
      (fun acc iv ->
        if iv.closing then begin
          iv.closing <- false;
          incr closed;
          acc
        end
        else begin
          extend rs t txn ~sid ~last iv;
          iv :: acc
        end)
      [] rs.open_ivs
  in
  if !closed <> List.length plan.to_close then
    error "CollateDataIntoIntervals: an interval to close was not open";
  let opened =
    List.filter_map
      (fun row ->
        let key = row_key rs row in
        match Hashtbl.find_opt plan.net key with
        | Some d when d > 0 ->
          Some (insert_new rs t txn ~key ~slots:(slots_of rs key) (first_row rs ~sid row))
        | _ -> None)
      plan.after
  in
  Array.of_list (List.rev_append extended opened)

(* Fold a snapshot's Qq answer, at most one row, into the run's
   accumulator. *)
let fold_var (rs : run_state) (rows : R.row list) =
  match rows with
  | [] -> ()
  | [ row ] ->
    rs.cur_rows <- 1;
    Sq.Exec.acc_add rs.var_acc row.(0)
  | _ -> error "AggregateDataInVariable: Qq returned more than one row for a snapshot"

(* Keep T's row, the map's one key (no grouping column), holding the
   running value after every iteration, so the SQL-form UDF needs no
   end-of-run signal.  A T without a row (the first iteration, or the
   user deleted it) gets a NULL row first, which the value rewrites;
   neither write counts as the loop body's. *)
let write_var_result (rs : run_state) t txn =
  let key = row_key rs [||] in
  let s =
    match slots_of rs key with s :: _ -> s | [] -> add_row rs t txn ~key ~slots:[] [| R.Null |]
  in
  write_back t txn s [| Sq.Exec.acc_final rs.var_acc |]

(* --- analyzed runs (EXPLAIN ANALYZE over the loop) ---------------------- *)

(* The prepared Qq's cached plan, when present and fresh. *)
let qq_plan (rs : run_state) = Sq.Engine.cached_plan rs.eval ~key:(qq_key rs.qq)

(* Chrome counter track: one sample of the cumulative per-operator row
   counts per iteration, so the operator-level progress of an analyzed
   run is visible on the trace timeline. *)
let emit_op_counters (rs : run_state) =
  if Obs.Trace.is_enabled () then
    match qq_plan rs with
    | Some plan ->
      Obs.Trace.emit_counter ~name:"rql.op_rows"
        (List.map
           (fun (a : Sq.Plan.op_actual) ->
             (Printf.sprintf "op%d %s" a.Sq.Plan.a_id a.Sq.Plan.a_kind,
              float_of_int a.Sq.Plan.a_rows))
           (Sq.Plan.actuals plan))
    | None -> ()

(* --- the loop body ----------------------------------------------------- *)

(* A stripe of a loop over [k] stripes.  It evaluates by delta unless
   the run is all-cold (every snapshot from scratch, by definition) or
   PRAGMA incremental is off on [data]; the k stripes share
   {!Sq.Incr.default_max_rows}, so a run keeps no more rows than one
   stripe alone would. *)
let make_stripe (data : Sq.Db.t) ~all_cold ~k prep =
  { prep;
    incr =
      (if all_cold || not data.Sq.Db.incremental then None
       else Some (Sq.Incr.create ~max_rows:(Sq.Incr.default_max_rows / k) ())) }

let make_run ?(analyze = false) ?(all_cold = false) (ctx : ctx) ~kind ~qq ~table () =
  (match kind with
  | Agg_table [] -> error "AggregateDataInTable requires at least one (column, function) pair"
  | _ -> ());
  (* Static gate (both the API form and the SQL-form UDFs construct
     their run here): a malformed Qq — unknown column, bad arity,
     non-SELECT — fails now, before any snapshot iteration spends SPT
     builds or page reads.  Diagnostics surface as RQL errors: to the
     caller this is the loop mechanism rejecting its Qq argument. *)
  (try Sq.Engine.analyze_qq ctx.data qq
   with Sq.Engine.Error msg -> error "Qq rejected: %s" msg);
  (* The evaluation session follows the data handle's PRAGMA optimize
     as of run start. *)
  Sq.Engine.set_optimize ctx.eval ctx.data.Sq.Db.optimize;
  { kind;
    qq;
    table;
    data = ctx.data;
    meta = ctx.meta;
    eval = ctx.eval;
    inline = make_stripe ctx.data ~all_cold ~k:1 (prepare_qq ctx.eval qq);
    rs_analyze = analyze;
    rs_all_cold = all_cold;
    t_start = now ();
    iterations = [];
    last_sid = None;
    header = [||];
    group_pos = [||];
    agg_cols = [];
    slots = Hashtbl.create 16;
    slots_at = None;
    first_rows = [];
    open_ivs = [||];
    applied = Hashtbl.create 16;
    prev_repeated = false;
    (* only AggregateDataInVariable folds into it *)
    var_acc =
      Sq.Exec.new_acc (agg_spec (match kind with Agg_var fn -> fn | _ -> Monoid.Count));
    cur_rows = 0;
    cur_inserts = 0;
    cur_updates = 0;
    rs_progress = None;
    rs_failed = false }

(* --- warm starts ---------------------------------------------------------- *)

let with_warm (ctx : ctx) f =
  Mutex.lock ctx.warm.mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock ctx.warm.mu) (fun () -> f ctx.warm)

(* Can [inc], kept under plan-cache key [key], serve a delta: is its
   plan the one the evaluation session has cached for the key, and its
   snapshot live? *)
let resumable (ctx : ctx) (key, inc) =
  match Sq.Engine.cached_plan ctx.eval ~key, ctx.data.Sq.Db.retro with
  | Some cached, Some retro -> Sq.Incr.resumes inc ~cached retro
  | _ -> false

(* Start [rs]'s one-stripe loop from the evaluator that the last run of
   its Qq kept, so that its first iteration is a delta from that run's
   last snapshot.  The run owns the evaluator until {!keep}; a stale one
   is dropped.  A run without an evaluator (all-cold, or PRAGMA
   incremental off) takes none. *)
let resume (ctx : ctx) (rs : run_state) =
  if Option.is_some rs.inline.incr then begin
    let key = qq_key rs.qq in
    let found =
      with_warm ctx (fun w ->
          let found = List.assoc_opt key w.entries in
          w.entries <- List.remove_assoc key w.entries;
          found)
    in
    match found with
    | Some inc when resumable ctx (key, inc) -> rs.inline <- { rs.inline with incr = Some inc }
    | _ -> ()
  end

(* Keep [rs]'s evaluator for the next run of its Qq, unless it keeps no
   snapshot or the run failed.  Stale entries go, and then the least
   recently kept ones until all fit the shared budget. *)
let keep (ctx : ctx) (rs : run_state) =
  match rs.inline.incr with
  | Some inc when (not rs.rs_failed) && Sq.Incr.kept inc <> None ->
    let key = qq_key rs.qq in
    with_warm ctx (fun w ->
        let rec fit room = function
          | ((_, i) as e) :: rest -> (
            match Sq.Incr.kept i with
            | Some n when n <= room -> e :: fit (room - n) rest
            | _ -> [])
          | [] -> []
        in
        let live = List.filter (resumable ctx) ((key, inc) :: List.remove_assoc key w.entries) in
        w.entries <- fit Sq.Incr.default_max_rows live)
  | _ -> ()

(* A snapshot's Qq rows, and its iteration's record as far as the
   evaluation fills it in: the evaluating session scope's counter and
   gauge deltas around the evaluation.  One domain drives a session, so
   the deltas are exact even while other stripes evaluate other
   snapshots.  The loop body completes the record ({!step_body}). *)
type eval_result = {
  ev_header : string array;
  ev_rows : R.row list Lazy.t; (* see {!rows_of} *)
  ev_changes : Sq.Incr.changes option;
  mutable ev_eval_s : float; (* wall-clock evaluation, SPT and index builds included *)
  ev_it : Iter_stats.iteration;
}

(* Evaluate stripe [st]'s Qq over snapshot [sid] on the session it was
   prepared on, measured in that session's scope: the one evaluation
   path of the loop. *)
let evaluate (st : stripe) ~sid =
  let module S = Storage.Stats in
  let sc = (Sq.Engine.prepared_db st.prep).Sq.Db.scope in
  let c h = Obs.Scope.get_in sc h and g h = Obs.Scope.gauge_get_in sc h in
  let plr0 = c S.c_pagelog_reads and dbr0 = c S.c_db_page_reads in
  let hit0 = c S.c_snap_cache_hits and mis0 = c S.c_snap_cache_misses in
  let mls0 = c S.c_maplog_scanned in
  let spt0 = g Sq.Exec_stats.g_spt_build_s and idx0 = g Sq.Exec_stats.g_index_build_s in
  let t0 = now () in
  let header, run = Sq.Engine.prepared_stream ~params:[| R.Int sid |] ?incr:st.incr st.prep in
  let report = Option.bind st.incr Sq.Incr.last in
  let collect () =
    let rows = ref [] in
    run (fun row -> rows := row :: !rows);
    List.rev !rows
  in
  (* A delta that reports its output changes emits its rows only if the
     loop body asks for them (before the stripe's next evaluation). *)
  let changes = Option.bind report (fun r -> r.Sq.Incr.changes) in
  let rows = if Option.is_none changes then Lazy.from_val (collect ()) else lazy (collect ()) in
  let eval_s = now () -. t0 in
  let mode, base, evaluated, reused =
    match report with
    | Some r ->
      let base = match r.Sq.Incr.mode with Sq.Incr.Delta b -> Some b | Sq.Incr.Full -> None in
      (Sq.Incr.mode_to_string r.Sq.Incr.mode, base, r.Sq.Incr.evaluated, r.Sq.Incr.reused)
    | None -> ("plain", None, 0, 0)
  in
  let pagelog_reads = c S.c_pagelog_reads - plr0 in
  { ev_header = header;
    ev_rows = rows;
    ev_changes = changes;
    ev_eval_s = eval_s;
    ev_it =
      { Iter_stats.snap_id = sid;
        cold = false;
        pagelog_reads;
        db_reads = c S.c_db_page_reads - dbr0;
        cache_hits = c S.c_snap_cache_hits - hit0;
        cache_misses = c S.c_snap_cache_misses - mis0;
        io_s = float_of_int pagelog_reads *. !Storage.Stats.Cost_model.ssd_read_s;
        spt_build_s = g Sq.Exec_stats.g_spt_build_s -. spt0;
        spt_entries = c S.c_maplog_scanned - mls0;
        index_build_s = g Sq.Exec_stats.g_index_build_s -. idx0;
        query_eval_s = 0.;
        udf_s = 0.;
        udf_rows = 0;
        udf_inserts = 0;
        udf_updates = 0;
        eval = mode;
        base;
        pages_evaluated = evaluated;
        pages_reused = reused } }

(* A snapshot's Qq rows.  Rows a deferred evaluation emits now count as
   evaluation time. *)
let rows_of ev =
  if Lazy.is_val ev.ev_rows then Lazy.force ev.ev_rows
  else begin
    let t0 = now () in
    let rows = Lazy.force ev.ev_rows in
    ev.ev_eval_s <- ev.ev_eval_s +. (now () -. t0);
    rows
  end

(* Apply one snapshot's Qq rows to the result table, in the
   mechanism-specific way. *)
let apply (rs : run_state) ev ~sid =
  let first = rs.last_sid = None in
  rs.cur_rows <- 0;
  rs.cur_inserts <- 0;
  rs.cur_updates <- 0;
  if first then init_run rs ev.ev_header;
  let t = resolve rs in
  (match rs.kind with
  | Collate ->
    Sq.Db.with_write_txn rs.meta (fun txn ->
        List.iter
          (fun row ->
            rs.cur_rows <- rs.cur_rows + 1;
            rs.cur_inserts <- rs.cur_inserts + 1;
            ignore (Sq.Exec.insert_row txn t.w row))
          (rows_of ev))
  | Agg_var _ | Agg_table _ | Intervals ->
    (* The map is committed state: anything else that changed a page
       since this run last committed (a statement between SQL-form
       invocations, say) forces a rebuild, and so does a failed
       iteration, since the map is trusted again only below.  An open
       explicit transaction may hold uncommitted edits of T that the
       install count does not see, so inside one the map is rebuilt
       from T as the transaction reads it. *)
    let valid =
      (not (Sq.Db.in_txn rs.meta)) && rs.slots_at = Some rs.meta.Sq.Db.pager.Storage.Pager.installs
    in
    rs.slots_at <- None;
    (* An intervals run's delta from the previous snapshot (the only
       changes it asks for, {!evaluate_inline}), over a trusted map,
       applies its changes (see [delta_plan]); anything else applies the
       rule to the full row list. *)
    let delta =
      match rs.kind, ev.ev_changes with
      | Intervals, Some ch when valid && not rs.prev_repeated -> delta_plan rs ch
      | _ -> None
    in
    let rows = if Option.is_none delta then rows_of ev else [] in
    Sq.Db.with_write_txn rs.meta (fun txn ->
        if not (first || valid) then rebuild_slots rs t txn;
        match rs.kind, delta with
        | Intervals, Some plan -> rs.open_ivs <- apply_delta rs t txn ~sid plan
        | Intervals, None ->
          let touched = List.rev_map (step_intervals rs t txn ~sid ~first) rows in
          rs.open_ivs <- Array.of_list (List.rev touched)
        | Agg_var _, _ ->
          fold_var rs rows;
          write_var_result rs t txn
        | _, _ -> List.iter (step_agg_table rs t txn ~sid) rows);
    rs.prev_repeated <- Hashtbl.mem rs.applied sid;
    Hashtbl.replace rs.applied sid ();
    if first then post_first rs;
    (* Inside an explicit transaction the iteration's writes are not
       committed yet, and may be rolled back. *)
    if not (Sq.Db.in_txn rs.meta) then
      rs.slots_at <- Some rs.meta.Sq.Db.pager.Storage.Pager.installs);
  rs.last_sid <- Some sid

(* One RQL iteration over snapshot [sid]: [eval] yields the snapshot's
   Qq rows (evaluating them inline, or taking them from the stripe that
   did), then the loop body applies them.  An all-cold run empties the
   snapshot page cache first (the baseline runs of §5.1). *)
let step_body (rs : run_state) ~sid eval =
  (* One timeseries sample per iteration, so sys_timeseries resolves the
     inside of a snapshot loop rather than only statement boundaries. *)
  Obs.Timeseries.tick ();
  (match Sq.Db.(rs.data.retro) with
  | Some retro when rs.rs_all_cold -> Retro.clear_cache retro
  | _ -> ());
  let first = rs.last_sid = None in
  let ev = eval () in
  let t0 = now () and eval_s = ev.ev_eval_s in
  apply rs ev ~sid;
  let late_s = ev.ev_eval_s -. eval_s in
  let e = ev.ev_it in
  let it =
    { e with
      Iter_stats.cold = rs.rs_all_cold || (first && e.Iter_stats.eval <> "delta");
      query_eval_s = Float.max 0. (ev.ev_eval_s -. e.spt_build_s -. e.index_build_s);
      udf_s = now () -. t0 -. late_s;
      udf_rows = rs.cur_rows;
      udf_inserts = rs.cur_inserts;
      udf_updates = rs.cur_updates }
  in
  Obs.Trace.set_attrs
    ([ ("cold", Obs.Trace.Bool it.Iter_stats.cold);
      ("pagelog_reads", Obs.Trace.Int it.Iter_stats.pagelog_reads);
      ("udf_rows", Obs.Trace.Int it.Iter_stats.udf_rows);
      ("modeled_io_s", Obs.Trace.Float it.Iter_stats.io_s);
      ("eval", Obs.Trace.Str it.Iter_stats.eval);
      ("pages_evaluated", Obs.Trace.Int it.Iter_stats.pages_evaluated) ]
    @ Iter_stats.base_attr it);
  rs.iterations <- it :: rs.iterations;
  if rs.rs_analyze then emit_op_counters rs

(* --- progress and cancellation ----------------------------------------- *)

(* Per-iteration ETA weights: iteration cost tracks the number of pages
   archived behind each snapshot (its delta, {!Retro.delta_entries}), so
   remaining time is scaled by remaining archived pages rather than a
   flat per-iteration average.  Two boundary reads per snapshot; a
   vacuumed or unknown id (possible only with a hand-written Qs) weighs
   1. *)
let snapshot_weights (data : Sq.Db.t) sids =
  match data.Sq.Db.retro with
  | None -> [||]
  | Some retro ->
    let live sid = sid >= Retro.first_live retro && sid <= Retro.snapshot_count retro in
    Array.of_list
      (List.map
         (fun sid -> if live sid then 1. +. float_of_int (Retro.delta_entries retro sid) else 1.)
         sids)

(* Progress rows in the event log: one at every run-status transition,
   so the slow-query log tells the story of a long retrospective run. *)
let progress_event (pg : Obs.Progress.t) =
  Obs.Eventlog.log ~kind:"rql_progress"
    [ ("run", Obs.Json.Int pg.Obs.Progress.pr_id);
      ("mechanism", Obs.Json.Str pg.Obs.Progress.pr_mechanism);
      ("status", Obs.Json.Str (Obs.Progress.status_to_string pg.Obs.Progress.pr_status));
      ("iterations_done", Obs.Json.Int pg.Obs.Progress.pr_done);
      ("iterations_total", Obs.Json.Int pg.Obs.Progress.pr_total);
      ("pages_read", Obs.Json.Int pg.Obs.Progress.pr_pages);
      ("elapsed_s", Obs.Json.Float pg.Obs.Progress.pr_elapsed) ]

(* The once-per-iteration cancellation point: checked before the
   iteration starts, so a flagged run stops within one iteration and
   never leaves a partial one behind. *)
let cancel_check (rs : run_state) =
  match rs.rs_progress with
  | Some pg when Obs.Progress.cancel_requested pg ->
    Obs.Progress.finish pg Obs.Progress.Cancelled;
    progress_event pg;
    raise
      (Cancelled
         { mechanism = mech_name rs.kind;
           iterations_done = pg.Obs.Progress.pr_done;
           run_id = pg.Obs.Progress.pr_id })
  | _ -> ()

let progress (rs : run_state) = rs.rs_progress

let iterate (rs : run_state) ~sid eval =
  cancel_check rs;
  let body () =
    Obs.Trace.with_span ~name:"rql.iteration"
      ~attrs:[ ("snap_id", Obs.Trace.Int sid) ]
      (fun () -> step_body rs ~sid eval)
  in
  match rs.rs_progress with
  | None -> body ()
  | Some pg ->
    Obs.Progress.with_active pg body;
    (match rs.iterations with
    | it :: _ ->
      Obs.Progress.note_iteration pg
        ~pages:
          (pg.Obs.Progress.pr_pages + it.Iter_stats.db_reads
         + it.Iter_stats.pagelog_reads)
    | [] -> ())

(* The one-stripe evaluation of snapshot [sid].  The intervals loop body
   applies a delta's output changes when the delta is from the loop's
   previous snapshot, so it asks for those; a warm first iteration's
   delta is from an earlier run's snapshot and computes none. *)
let evaluate_inline (rs : run_state) ~sid =
  (match rs.kind, rs.inline.incr, rs.last_sid with
  | Intervals, Some inc, Some prev -> Sq.Incr.request_changes inc ~base:prev
  | _ -> ());
  evaluate rs.inline ~sid

(* One iteration of the one-stripe loop: the Qq evaluated inline, on
   the ctx's evaluation session. *)
let step (rs : run_state) ~sid = iterate rs ~sid (fun () -> evaluate_inline rs ~sid)

(* Result-table footprint (rows and approximate bytes), of T as the
   meta catalog finds it now; a run that applied no snapshot has none. *)
let result_metrics (rs : run_state) =
  match Sq.Catalog.find_table (Sq.Db.catalog rs.meta) rs.table with
  | Some tbl when rs.last_sid <> None ->
    let rows = ref 0 and bytes = ref 0 in
    Storage.Heap.iter_spans (Sq.Db.read_current rs.meta)
      (Storage.Heap.open_existing tbl.Sq.Catalog.theap) ~f:(fun _rid _page _off len ->
        incr rows;
        bytes := !bytes + len);
    (!rows, !bytes)
  | _ -> (0, 0)

(* The run's record so far.  The scan of T behind the footprint is
   post-loop work, timed into [finalize_s].  An analyzed run's prepared
   Qq plan is shared by every iteration (plan-cache slot sharing), so
   its operator slots hold actuals accumulated over the whole loop. *)
let run_record (rs : run_state) : Iter_stats.run =
  let t0 = now () in
  let result_rows, result_bytes = result_metrics rs in
  { Iter_stats.mechanism = mech_name rs.kind;
    qq = rs.qq;
    iterations = List.rev rs.iterations;
    ops = (match qq_plan rs with Some p when rs.rs_analyze -> Sq.Plan.actuals p | _ -> []);
    result_rows;
    result_bytes;
    finalize_s = now () -. t0 }

let finish (rs : run_state) : Iter_stats.run =
  let run = run_record rs in
  (* Modeled-attribution track: only worth emitting when tracing is on. *)
  if Obs.Trace.is_enabled () then Iter_stats.emit_trace ~start_s:rs.t_start run;
  run

(* --- snapshot management ---------------------------------------------- *)

let snapids_ddl = "CREATE TABLE IF NOT EXISTS SnapIds (snap_id INTEGER, snap_ts TEXT, snap_name TEXT)"

let format_ts ts =
  let tm = Unix.localtime ts in
  Printf.sprintf "%04d-%02d-%02d %02d:%02d:%02d" (tm.Unix.tm_year + 1900) (tm.Unix.tm_mon + 1)
    tm.Unix.tm_mday tm.Unix.tm_hour tm.Unix.tm_min tm.Unix.tm_sec

(* Declare a snapshot: COMMIT WITH SNAPSHOT on the data database (commits
   the open transaction if any), then record the id in SnapIds. *)
let declare_snapshot ?name (ctx : ctx) =
  let sid =
    match Sq.Db.commit ctx.data ~snapshot:true with
    | Some sid -> sid
    | None -> error "internal: COMMIT WITH SNAPSHOT returned no snapshot id"
  in
  let retro = Sq.Db.retro_exn ctx.data in
  let ts = format_ts (Retro.snapshot_ts retro sid) in
  let name = Option.value name ~default:"" in
  ignore
    (Sq.Engine.exec ctx.meta
       (Printf.sprintf "INSERT INTO SnapIds VALUES (%d, '%s', '%s')" sid ts
          (String.concat "''" (String.split_on_char '\'' name))));
  sid

(* Snapshot ids returned by a snapshot query Qs over SnapIds.  The
   static gate enforces the paper's Qs contract — a SELECT projecting
   exactly one snapshot-id column — before anything executes. *)
let snapshot_set (ctx : ctx) qs =
  (try Sq.Engine.analyze_qs ctx.meta qs
   with Sq.Engine.Error msg -> error "Qs rejected: %s" msg);
  let res = Sq.Engine.exec ctx.meta qs in
  List.map
    (fun row ->
      if Array.length row < 1 then error "Qs returned an empty row"
      else
        match row.(0) with
        | R.Int sid -> sid
        | v -> error "Qs must return snapshot ids; got %s" (R.value_to_string v))
    res.Sq.Engine.rows

(* --- the snapshot loop ---------------------------------------------------- *)

(* Evaluate the snapshots [sids] over [k] stripes and pass [f] the
   function that yields the i-th snapshot's rows, in order.  Stripe w
   evaluates sids w, w + k, ...

   With k = 1 the one stripe is [rs.inline], evaluated on demand on the
   calling domain.  Otherwise each stripe runs on its own domain and
   session, with its own delta evaluator, and publishes into a ring of
   2k slots: a stripe runs at most 2k evaluations ahead of the slot the
   caller takes next, so a run holds at most 2k snapshots' rows.  Any
   failure stops every stripe, wakes every waiter and re-raises in the
   caller; the stripes are joined and their sessions closed before this
   returns or raises. *)
let with_stripes (rs : run_state) ~k sids f =
  if k = 1 then f (fun i -> evaluate_inline rs ~sid:sids.(i))
  else begin
    let n = Array.length sids and ahead = 2 * k in
    let slots : eval_result option array = Array.make ahead None in
    let taken = ref 0 in (* slots the caller has taken *)
    let stop = ref false in
    let failure : exn option ref = ref None in
    let mu = Mutex.create () and cv = Condition.create () in
    let locked f =
      Mutex.lock mu;
      Fun.protect ~finally:(fun () -> Mutex.unlock mu) f
    in
    let fail e =
      locked (fun () ->
          if !failure = None then failure := Some e;
          stop := true;
          Condition.broadcast cv)
    in
    (* Wait until slot [i] is within reach; false once the run stops. *)
    let room i =
      locked (fun () ->
          while i >= !taken + ahead && not !stop do Condition.wait cv mu done;
          not !stop)
    in
    let stripe w () =
      let wdb = Sq.Db.session rs.data in
      Sq.Engine.set_optimize wdb rs.data.Sq.Db.optimize;
      Fun.protect
        ~finally:(fun () -> Sq.Db.close_session wdb)
        (fun () ->
          try
            let st = make_stripe rs.data ~all_cold:rs.rs_all_cold ~k (prepare_qq wdb rs.qq) in
            let i = ref w in
            while !i < n && room !i do
              let ev = evaluate st ~sid:sids.(!i) in
              locked (fun () ->
                  slots.(!i mod ahead) <- Some ev;
                  Condition.broadcast cv);
              i := !i + k
            done
          with e -> fail e)
    in
    let take i =
      locked (fun () ->
          let rec go () =
            match slots.(i mod ahead), !failure with
            | Some ev, _ ->
              slots.(i mod ahead) <- None;
              taken := i + 1;
              Condition.broadcast cv;
              ev
            | None, Some e -> raise e
            | None, None ->
              Condition.wait cv mu;
              go ()
          in
          go ())
    in
    let dms = List.init (min k n) (fun w -> Domain.spawn (stripe w)) in
    Fun.protect
      ~finally:(fun () ->
        locked (fun () ->
            stop := true;
            Condition.broadcast cv);
        List.iter Domain.join dms)
      (fun () -> f take)
  end

(* The snapshot loop (paper §3): evaluate Qq over every snapshot of
   [sids] on [k] stripes, and apply the rows through the loop body in
   snapshot order.  The loop body never observes the striping, so the
   result table is byte-identical for every k, for every mechanism —
   order-sensitive ones like intervals included. *)
let snapshot_loop (rs : run_state) ~k sids =
  let sids = Array.of_list sids in
  with_stripes rs ~k sids (fun take ->
      Array.iteri (fun i sid -> iterate rs ~sid (fun () -> take i)) sids)

(* --- public mechanisms -------------------------------------------------- *)

let run_mechanism ?(all_cold = false) ?(analyze = false) ?(domains = 1) ctx kind ~qs ~qq ~table =
  (* make_run first: its Qq gate must fire before the Qs executes (a
     bad Qq spends zero page reads, not even SnapIds ones). *)
  let rs = make_run ~analyze ~all_cold ctx ~kind ~qq ~table () in
  let sids = snapshot_set ctx qs in
  if sids = [] then error "%s: Qs returned no snapshots" (mech_name kind);
  (match Sq.Db.(ctx.data.retro) with
  | Some retro -> Retro.clear_cache retro (* paper: cache is cold at RQL query start *)
  | None -> ());
  let pg =
    Obs.Progress.start ~total:(List.length sids) ~mechanism:(mech_name kind)
      ~detail:qq ()
  in
  Obs.Progress.set_weights pg (snapshot_weights ctx.data sids);
  rs.rs_progress <- Some pg;
  Obs.Trace.with_span ~name:"rql.run"
    ~attrs:
      [ ("mechanism", Obs.Trace.Str (mech_name kind));
        ("snapshots", Obs.Trace.Int (List.length sids)) ]
    (fun () ->
      (* One stripe, run inline, for an all-cold run (a cache clear
         between iterations) and an analyzed one (per-operator actuals
         accumulate on one shared plan).  Only the one-stripe loop starts
         warm; k stripes keep their own evaluators on their own
         sessions. *)
      let k = if all_cold || analyze then 1 else max 1 domains in
      if k = 1 then resume ctx rs;
      let loop () =
        snapshot_loop rs ~k sids;
        if k = 1 then keep ctx rs;
        finish rs
      in
      let run () =
        if not analyze then loop ()
        else begin
          (* The Qq may already be cached from an earlier run: start the
             accumulators at zero so the report covers exactly this run. *)
          (match qq_plan rs with Some p -> Sq.Plan.reset_actuals p | None -> ());
          let was = ctx.eval.Sq.Db.analyze in
          Sq.Engine.set_analyze ctx.eval true;
          Fun.protect ~finally:(fun () -> Sq.Engine.set_analyze ctx.eval was) loop
        end
      in
      match run () with
      | r ->
        Obs.Progress.finish pg Obs.Progress.Done;
        progress_event pg;
        r
      | exception e ->
        (* A cancel already marked (and logged) the run; anything else
           that escapes the loop failed it. *)
        if pg.Obs.Progress.pr_status = Obs.Progress.Running then begin
          Obs.Progress.finish pg Obs.Progress.Failed;
          progress_event pg
        end;
        raise e)

let collate_data ?all_cold ?analyze ?domains ctx ~qs ~qq ~table =
  run_mechanism ?all_cold ?analyze ?domains ctx Collate ~qs ~qq ~table

let aggregate_data_in_variable ?all_cold ?analyze ?domains ctx ~qs ~qq ~table ~fn =
  run_mechanism ?all_cold ?analyze ?domains ctx (Agg_var (Monoid.of_string fn)) ~qs ~qq ~table

let aggregate_data_in_table ?all_cold ?analyze ?domains ctx ~qs ~qq ~table ~aggs =
  let aggs = List.map (fun (c, fn) -> (c, Monoid.of_string fn)) aggs in
  run_mechanism ?all_cold ?analyze ?domains ctx (Agg_table aggs) ~qs ~qq ~table

let collate_data_into_intervals ?all_cold ?analyze ?domains ctx ~qs ~qq ~table =
  run_mechanism ?all_cold ?analyze ?domains ctx Intervals ~qs ~qq ~table

(* --- SQL-form UDFs ------------------------------------------------------ *)

(* Parse the paper's ListOfColFuncPairs syntax: "(c,max):(av,min)". *)
let parse_pairs s =
  let parts = String.split_on_char ':' (String.trim s) in
  List.map
    (fun p ->
      let p = String.trim p in
      let p =
        if String.length p >= 2 && p.[0] = '(' && p.[String.length p - 1] = ')' then
          String.sub p 1 (String.length p - 2)
        else p
      in
      match String.split_on_char ',' p with
      | [ col; fn ] -> (String.trim col, Monoid.of_string fn)
      | _ -> error "bad column/function pair: %s" p)
    parts

let run_key kind qq table =
  mech_name kind ^ "\x00" ^ qq ^ "\x00" ^ String.lowercase_ascii table

(* A SQL-form run is complete: its progress is done, and its evaluator
   is kept for the next run of its Qq. *)
let retire ctx (rs : run_state) =
  Option.iter (fun p -> Obs.Progress.finish p Obs.Progress.Done) rs.rs_progress;
  keep ctx rs

(* A loop-body invocation arriving from the SQL form.  A fresh run starts
   when no run exists for (mechanism, Qq, T) or when the snapshot id does
   not advance (the statement was re-executed); it resumes the evaluator
   the superseded run, or an earlier run of the Qq, kept. *)
let udf_step ctx kind ~qq ~table ~sid =
  let key = run_key kind qq table in
  let rs =
    match Hashtbl.find_opt ctx.runs key with
    | Some rs when (match rs.last_sid with Some last -> sid > last | None -> true) -> rs
    | prev ->
      (* The statement was re-executed: the superseded run is complete. *)
      Option.iter (retire ctx) prev;
      let rs = make_run ctx ~kind ~qq ~table () in
      resume ctx rs;
      (match Sq.Db.(ctx.data.retro) with
      | Some retro -> Retro.clear_cache retro
      | None -> ());
      (* The SQL form has no snapshot-set argument, so the total is
         unknown (0): progress still counts iterations and pages. *)
      rs.rs_progress <-
        Some (Obs.Progress.start ~mechanism:(mech_name kind) ~detail:qq ());
      Hashtbl.replace ctx.runs key rs;
      rs
  in
  match step rs ~sid with
  | () -> ()
  | exception (Cancelled _ as e) ->
    (* Drop the run so a later invocation starts fresh rather than
       resuming a cancelled loop. *)
    Hashtbl.remove ctx.runs key;
    raise e
  | exception e ->
    rs.rs_failed <- true;
    raise e

(* Emit the modeled-attribution trace for every active SQL-form run
   without retiring it.  The SQL form has no end-of-run signal, so the
   shell calls this right before a trace dump; API-form runs emit in
   [finish] instead. *)
let flush_traces (ctx : ctx) =
  if Obs.Trace.is_enabled () then
    Hashtbl.iter (fun _ rs -> Iter_stats.emit_trace ~start_s:rs.t_start (run_record rs)) ctx.runs

(* Retrieve (and retire) the statistics of the most recent SQL-form run
   that produced result table [table]. *)
let take_run ctx ~table =
  let found = ref None in
  Hashtbl.iter
    (fun key rs ->
      if norm rs.table = norm table then found := Some (key, rs))
    ctx.runs;
  match !found with
  | Some (key, rs) ->
    Hashtbl.remove ctx.runs key;
    retire ctx rs;
    Some (finish rs)
  | None -> None

let int_arg name = function
  | R.Int i -> i
  | v -> error "%s: expected an integer argument, got %s" name (R.value_to_string v)

let text_arg name = function
  | R.Text s -> s
  | v -> error "%s: expected a text argument, got %s" name (R.value_to_string v)

(* The SQL-form UDFs: (snap_id, Qq, T), plus an aggregation's function(s). *)
let register_udfs ctx =
  let udf name more kind =
    let params = "snap_id" :: "Qq" :: "T" :: more in
    Sq.Engine.register_fn ctx.meta name (fun args ->
        if Array.length args <> List.length params then
          error "%s expects (%s)" name (String.concat ", " params);
        let text i = text_arg name args.(i) in
        udf_step ctx (kind text) ~qq:(text 1) ~table:(text 2) ~sid:(int_arg name args.(0));
        R.Null)
  in
  udf "CollateData" [] (fun _ -> Collate);
  udf "AggregateDataInVariable" [ "AggFunc" ] (fun text -> Agg_var (Monoid.of_string (text 3)));
  udf "AggregateDataInTable" [ "ListOfColFuncPairs" ] (fun text -> Agg_table (parse_pairs (text 3)));
  udf "CollateDataIntoIntervals" [] (fun _ -> Intervals)

(* --- context creation ---------------------------------------------------- *)

let make_ctx ~data ~meta =
  let ctx =
    { data;
      meta;
      eval = Sq.Db.session data;
      runs = Hashtbl.create 8;
      warm = { mu = Mutex.create (); entries = [] } }
  in
  register_udfs ctx;
  (* current_snapshot() is only meaningful inside a Qq, where the loop
     body binds it.  A direct call is a usage error. *)
  Sq.Engine.register_fn data "current_snapshot" (fun _ ->
      error "current_snapshot() is only valid inside an RQL Qq query");
  ctx

let create ?data () =
  let data = match data with Some d -> d | None -> Sq.Db.create ~snapshots:true () in
  let meta = Sq.Db.create ~snapshots:false () in
  ignore (Sq.Engine.exec meta snapids_ddl);
  make_ctx ~data ~meta

(* Convenience wrappers for the two databases. *)
let exec_data ctx sql = Sq.Engine.exec ctx.data sql
let exec_meta ctx sql = Sq.Engine.exec ctx.meta sql

(* --- persistence ---------------------------------------------------------- *)

(* Save the whole context — the application database with its complete
   snapshot history, and the SnapIds/result database — to [path] as one
   {!Sq.Image.context} file, so a truncated or bit-flipped file fails
   typed at load instead of decoding garbage. *)
let save (ctx : ctx) ~path =
  Sq.Image.write Sq.Image.context ~path
    (Sq.Backup.snapshot_image ctx.data, Sq.Backup.snapshot_image ctx.meta)

(* Reopen a context saved by {!save}: AS OF queries over the restored
   history work immediately, mechanisms and current_snapshot() are
   re-registered, and new snapshots can be declared on top. *)
let load ~path =
  let data_img, meta_img = Sq.Image.read Sq.Image.context ~path in
  make_ctx ~data:(Sq.Backup.restore_image data_img) ~meta:(Sq.Backup.restore_image meta_img)
