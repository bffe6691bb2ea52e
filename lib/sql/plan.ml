(* Typed physical-plan IR.

   A [Plan.t] is the output of the planner and the input of the
   executor: a self-contained description of how a SELECT runs — access
   paths (heap scan / index search with bounds), join strategy per
   joined table (index probe, automatic hash index, materialized nested
   loop, left outer hash), filters, projection, aggregation, and
   sort/limit.  All value positions hold expressions rather than
   constants so that one compiled plan can be re-executed with different
   parameter bindings ([bind]) and against different snapshot
   environments; nothing in a plan refers to mutable executor state.

   Expression resolution conventions: expressions stored in the plan
   are positional ([Ast.Colidx]) — "local" means resolved against the
   columns of a single table, "combined" against the concatenation of
   all tables joined so far (in FROM order). *)

module R = Storage.Record
open Ast

(* A planned source table: catalog entry + alias + offset of its first
   column in the combined row. *)
type source = {
  s_tbl : Catalog.table;
  s_alias : string;
  s_offset : int;
}

(* --- operator instrumentation ----------------------------------------

   Every pipeline operator of a plan carries a stable id and a mutable
   instrumentation slot.  Slots are filled by the executor only when the
   environment's [analyze] flag is set; otherwise they stay untouched
   (the zero-overhead path).  Because plan copies made by [map_core] /
   [bind] are shallow record updates, the nested mutable slots are
   shared between the cached plan and every bound copy — actuals
   observed while executing a bound copy are readable off the original,
   and repeated executions (prepared statements, RQL iterations)
   accumulate into the same slots until [reset_actuals]. *)

type opstats = {
  mutable o_loops : int;      (* times the operator was started *)
  mutable o_rows : int;       (* rows produced (emitted downstream) *)
  mutable o_elapsed_s : float;(* inclusive of upstream stages, like pg *)
  mutable o_pages : int;      (* db + pagelog page reads, inclusive *)
  mutable o_probes : int;     (* hash/index lookups driven by this op *)
}

type op = { op_id : int; op_slot : opstats }

let fresh_slot () = { o_loops = 0; o_rows = 0; o_elapsed_s = 0.; o_pages = 0; o_probes = 0 }

(* A new, unnumbered operator; [number_ops] assigns the stable ids. *)
let mk_op () = { op_id = 0; op_slot = fresh_slot () }

(* Sargable bound on the leading column of an index: column position in
   the table, comparison, value expression.  The value expression is
   row-independent (a literal, parameter or constant computation) and is
   evaluated at execution time. *)
type bound = int * binop * expr

type access =
  | Seq_scan
  | Index_search of { ix : Catalog.index; bounds : bound list }

(* First pipeline stage: the driving table. [sc_filters] are local. *)
type scan = {
  sc_src : source;
  sc_access : access;
  sc_filters : expr list;
  sc_op : op;
}

(* Join strategy for one joined table.  [equi] pairs are
   (combined-resolved left expr, local-resolved right expr). *)
type join =
  | Nested_loop of { filters : expr list }
      (* no equi keys: materialized filtered inner, cross/theta loop *)
  | Hash_join of { equi : (expr * expr) list; filters : expr list }
      (* automatic ephemeral hash index on the inner side *)
  | Index_probe of { ix : Catalog.index; equi : (expr * expr) list; filters : expr list }
      (* persistent single-column index probe on the join key *)
  | Left_hash of {
      equi : (expr * expr) list;
      inner_filters : expr list;
      residual : expr list; (* combined-resolved incl. this table; NULL-padded rows bypass *)
    }

type join_step = { j_src : source; j_plan : join; j_op : op }

type from_plan =
  | From_none (* SELECT without FROM *)
  | From_scan of {
      first : scan;
      joins : join_step list;
      residual : expr list; (* combined-resolved, applied after all joins *)
    }

type order_key =
  | Out_col of int (* sort by output column position *)
  | Key_expr of expr (* sort by combined-resolved expression *)

(* One compiled SELECT core (a UNION member, or the whole statement). *)
type core = {
  c_from : from_plan;
  c_header : string array;
  c_out : expr list; (* output expressions, Colidx/Aggref-resolved *)
  c_aggs : agg list; (* aggregate slots, arguments resolved *)
  c_has_agg : bool;
  c_group : expr list;
  c_having : expr option;
  c_order : (order_key * bool) list; (* key, descending *)
  c_distinct : bool;
  c_limit : expr option;
  c_offset : expr option;
  (* Set by the optimizer when a WHERE conjunct is proven always-false
     (or NULL): the row producer yields nothing, but the rest of the
     pipeline still runs so aggregates over zero rows stay correct. *)
  c_empty : bool;
  (* Instrumentation slots for the non-FROM pipeline stages.  Always
     present; only the ones a core actually uses show up in actuals. *)
  c_filter_op : op; (* post-join residual filter *)
  c_agg_op : op;    (* grouping / aggregation (rows = groups out) *)
  c_sort_op : op;   (* sort / distinct buffer *)
  c_out_op : op;    (* final output (post limit/offset) *)
}

(* What the optimizer did to (and concluded about) a plan.  Attached by
   [Opt.optimize]; [None] means the plan never went through the pass
   (PRAGMA optimize=off). *)
type opt_info = {
  oi_folds : int;           (* expressions replaced by literals *)
  oi_pruned : int;          (* always-true/false predicate conjuncts removed *)
  oi_empty : bool;          (* an always-false conjunct emptied the plan *)
  oi_delta_safe : bool;     (* eligible for delta-driven incremental RQL *)
  oi_delta_reason : string; (* "" when delta-safe, else why not *)
  oi_notes : (int * string) list; (* op_id -> per-node annotation *)
}

type t = {
  p_src : select; (* original AST (re-planning for AS OF members, EXPLAIN) *)
  p_as_of : expr option;
  p_core : core;
  p_members : (bool * t) list; (* UNION (false) / UNION ALL (true) arms *)
  p_corder : (int * bool) list; (* compound ORDER BY: output position, desc *)
  p_climit : expr option;
  p_coffset : expr option;
  p_opt : opt_info option;
}

(* A cache entry: the plan plus the catalog generation it was built
   against.  A lookup whose generation differs is stale. *)
type cached = { cp_plan : t; cp_gen : int }

(* --- mapping over the expressions of a plan -------------------------- *)

let map_access f = function
  | Seq_scan -> Seq_scan
  | Index_search { ix; bounds } ->
    Index_search { ix; bounds = List.map (fun (i, op, e) -> (i, op, f e)) bounds }

let map_join f = function
  | Nested_loop { filters } -> Nested_loop { filters = List.map f filters }
  | Hash_join { equi; filters } ->
    Hash_join
      { equi = List.map (fun (a, b) -> (f a, f b)) equi; filters = List.map f filters }
  | Index_probe { ix; equi; filters } ->
    Index_probe
      { ix; equi = List.map (fun (a, b) -> (f a, f b)) equi; filters = List.map f filters }
  | Left_hash { equi; inner_filters; residual } ->
    Left_hash
      { equi = List.map (fun (a, b) -> (f a, f b)) equi;
        inner_filters = List.map f inner_filters;
        residual = List.map f residual }

let map_from f = function
  | From_none -> From_none
  | From_scan { first; joins; residual } ->
    From_scan
      { first =
          { first with
            sc_access = map_access f first.sc_access;
            sc_filters = List.map f first.sc_filters };
        joins = List.map (fun js -> { js with j_plan = map_join f js.j_plan }) joins;
        residual = List.map f residual }

(* Apply [f] to every expression slot of a core. *)
let map_core f (c : core) : core =
  { c with
    c_from = map_from f c.c_from;
    c_out = List.map f c.c_out;
    c_aggs = List.map (fun a -> { a with agg_arg = Option.map f a.agg_arg }) c.c_aggs;
    c_group = List.map f c.c_group;
    c_having = Option.map f c.c_having;
    c_order =
      List.map
        (fun (k, d) -> ((match k with Out_col _ as k -> k | Key_expr e -> Key_expr (f e)), d))
        c.c_order;
    c_limit = Option.map f c.c_limit;
    c_offset = Option.map f c.c_offset }

let rec map_exprs f (p : t) : t =
  { p with
    p_as_of = Option.map f p.p_as_of;
    p_core = map_core f p.p_core;
    p_members = List.map (fun (all, m) -> (all, map_exprs f m)) p.p_members;
    p_climit = Option.map f p.p_climit;
    p_coffset = Option.map f p.p_coffset }

(* --- column projection ------------------------------------------------

   The stored columns of each FROM source that a core reads: one mask
   per source, the driving table first, then the joined tables in FROM
   order.  Scans decode only these columns and leave the rest of each
   row NULL, so a query reading one column of a wide table builds one
   value per row.  Computed on the core as executed, after subquery
   expansion; subqueries are uncorrelated, so no outer column hides
   inside one.  A mask ends at its source's last needed column, which
   is where decoding stops. *)
let projections (c : core) : bool array list =
  match c.c_from with
  | From_none -> []
  | From_scan { first; joins; residual } ->
    let sources = first.sc_src :: List.map (fun js -> js.j_src) joins in
    let width =
      List.fold_left (fun acc s -> acc + Array.length s.s_tbl.Catalog.tcols) 0 sources
    in
    let used = Array.make width false in
    let mark offset e =
      ignore
        (Expr.map
           (function
             | Colidx i as e ->
               used.(offset + i) <- true;
               e
             | e -> e)
           e)
    in
    let combined = mark 0 and local (s : source) = mark s.s_offset in
    List.iter (local first.sc_src) first.sc_filters;
    List.iter
      (fun js ->
        let local = local js.j_src in
        let equi = List.iter (fun (l, r) -> combined l; local r) in
        match js.j_plan with
        | Nested_loop { filters } -> List.iter local filters
        | Hash_join { equi = eq; filters } | Index_probe { equi = eq; filters; _ } ->
          equi eq;
          List.iter local filters
        | Left_hash { equi = eq; inner_filters; residual } ->
          equi eq;
          List.iter local inner_filters;
          List.iter combined residual)
      joins;
    List.iter combined residual;
    List.iter combined c.c_out;
    List.iter (fun a -> Option.iter combined a.agg_arg) c.c_aggs;
    List.iter combined c.c_group;
    Option.iter combined c.c_having;
    List.iter (function Key_expr e, _ -> combined e | Out_col _, _ -> ()) c.c_order;
    List.map
      (fun s ->
        let last = ref 0 in
        Array.iteri
          (fun i _ -> if used.(s.s_offset + i) then last := i + 1)
          s.s_tbl.Catalog.tcols;
        Array.sub used s.s_offset !last)
      sources

(* --- parameter binding ----------------------------------------------- *)

(* Substitute [Param i] with the i-th binding, everywhere including
   inside subquery expressions. *)
let bind_expr (params : R.value array) (e : expr) : expr =
  if Array.length params = 0 then e
  else
    Expr.map_deep
      (function
        | Param i ->
          if i >= Array.length params then
            Sql_error.error "missing binding for parameter ?%d" (i + 1)
          else Lit params.(i)
        | e -> e)
      e

let bind (params : R.value array) (p : t) : t =
  if Array.length params = 0 then p else map_exprs (bind_expr params) p

(* --- operator numbering and actuals ----------------------------------- *)

(* Visit every operator of the plan, pre-order (scan, joins in FROM
   order, filter, aggregate, sort, output; then UNION members). *)
let iter_ops (f : op -> unit) (p : t) : unit =
  let core (c : core) =
    (match c.c_from with
    | From_none -> ()
    | From_scan { first; joins; _ } ->
      f first.sc_op;
      List.iter (fun js -> f js.j_op) joins);
    f c.c_filter_op;
    f c.c_agg_op;
    f c.c_sort_op;
    f c.c_out_op
  in
  let rec go p =
    core p.p_core;
    List.iter (fun (_, m) -> go m) p.p_members
  in
  go p

(* Assign stable pre-order operator ids (1-based) across the whole plan,
   including UNION members.  Called once by the planner on a freshly
   built plan; copies made later ([bind], subquery expansion) share the
   numbered ops. *)
let number_ops (p : t) : t =
  let next = ref 0 in
  let renum op =
    incr next;
    { op_id = !next; op_slot = op.op_slot }
  in
  let renum_core (c : core) =
    let c_from =
      match c.c_from with
      | From_none -> From_none
      | From_scan { first; joins; residual } ->
        let first = { first with sc_op = renum first.sc_op } in
        let joins = List.map (fun js -> { js with j_op = renum js.j_op }) joins in
        From_scan { first; joins; residual }
    in
    { c with
      c_from;
      c_filter_op = renum c.c_filter_op;
      c_agg_op = renum c.c_agg_op;
      c_sort_op = renum c.c_sort_op;
      c_out_op = renum c.c_out_op }
  in
  let rec go p =
    let core = renum_core p.p_core in
    let members = List.map (fun (all, m) -> (all, go m)) p.p_members in
    { p with p_core = core; p_members = members }
  in
  go p

let reset_slot s =
  s.o_loops <- 0;
  s.o_rows <- 0;
  s.o_elapsed_s <- 0.;
  s.o_pages <- 0;
  s.o_probes <- 0

(* Zero every instrumentation slot of the plan (all copies share them). *)
let reset_actuals (p : t) : unit = iter_ops (fun op -> reset_slot op.op_slot) p

(* A materialized snapshot of one operator's slot, paired with the
   planner-choice line it annotates. *)
type op_actual = {
  a_id : int;
  a_kind : string; (* scan | search | nested_loop | hash_join | index_probe
                      | left_hash | filter | aggregate | sort | output *)
  a_label : string;
  a_loops : int;
  a_rows : int;
  a_elapsed_s : float;
  a_pages : int;
  a_probes : int;
}

(* Result of one instrumented statement execution, stored on the Db
   handle by EXPLAIN ANALYZE for structural consumption. *)
type analysis = {
  az_sql : string;
  az_rows : int;            (* rows the statement returned *)
  az_elapsed_s : float;     (* wall clock of the instrumented run *)
  az_snapshot : int option; (* snapshot id when executed under AS OF *)
  az_ops : op_actual list;
}

let op_actual_to_json (a : op_actual) =
  Obs.Json.Obj
    [ ("id", Obs.Json.Int a.a_id);
      ("kind", Obs.Json.Str a.a_kind);
      ("label", Obs.Json.Str a.a_label);
      ("rows", Obs.Json.Int a.a_rows);
      ("loops", Obs.Json.Int a.a_loops);
      ("time_ms", Obs.Json.Float (a.a_elapsed_s *. 1000.));
      ("pages", Obs.Json.Int a.a_pages);
      ("probes", Obs.Json.Int a.a_probes) ]

(* --- pretty-printing -------------------------------------------------- *)

let scan_line (first : scan) =
  match first.sc_access with
  | Index_search { ix; _ } ->
    Printf.sprintf "SEARCH %s USING INDEX %s" first.sc_src.s_tbl.Catalog.tname ix.Catalog.iname
  | Seq_scan ->
    Printf.sprintf "SCAN %s%s" first.sc_src.s_tbl.Catalog.tname
      (if first.sc_src.s_tbl.Catalog.theap < 0 then " (virtual)" else "")

let join_line (js : join_step) =
  let name = js.j_src.s_tbl.Catalog.tname in
  match js.j_plan with
  | Nested_loop _ -> Printf.sprintf "SCAN %s (nested loop)" name
  | Hash_join _ -> Printf.sprintf "JOIN %s USING AUTOMATIC HASH INDEX" name
  | Index_probe { ix; _ } ->
    Printf.sprintf "SEARCH %s USING INDEX %s (join)" name ix.Catalog.iname
  | Left_hash { equi = []; _ } -> Printf.sprintf "LEFT JOIN %s (materialized scan)" name
  | Left_hash _ -> Printf.sprintf "LEFT JOIN %s USING AUTOMATIC HASH INDEX" name

(* The operators a plan actually exercises, in pipeline order, each with
   its kind tag and the planner-choice line it annotates.  Unused slots
   (e.g. the aggregate op of a non-aggregating core) are omitted. *)
let labeled_ops (p : t) : (op * string * string) list =
  let core (c : core) =
    let from_ops =
      match c.c_from with
      | From_none -> []
      | From_scan { first; joins; residual } ->
        let scan_kind =
          match first.sc_access with Seq_scan -> "scan" | Index_search _ -> "search"
        in
        let join_kind js =
          match js.j_plan with
          | Nested_loop _ -> "nested_loop"
          | Hash_join _ -> "hash_join"
          | Index_probe _ -> "index_probe"
          | Left_hash _ -> "left_hash"
        in
        ((first.sc_op, scan_kind, scan_line first)
         :: List.map (fun js -> (js.j_op, join_kind js, join_line js)) joins)
        @
        if residual = [] then []
        else
          [ (c.c_filter_op, "filter",
             Printf.sprintf "FILTER (%d residual terms)" (List.length residual)) ]
    in
    from_ops
    @ (if not c.c_has_agg then []
       else
         [ (c.c_agg_op, "aggregate",
            if c.c_group = [] then "AGGREGATE"
            else Printf.sprintf "AGGREGATE (GROUP BY %d keys)" (List.length c.c_group)) ])
    @ (if c.c_order = [] && not c.c_distinct then []
       else
         [ (c.c_sort_op, "sort",
            match (c.c_distinct, c.c_order <> []) with
            | true, true -> "SORT (DISTINCT + ORDER BY)"
            | true, false -> "SORT (DISTINCT)"
            | _ -> "SORT (ORDER BY)") ])
    @ [ (c.c_out_op, "output", "OUTPUT") ]
  in
  let rec go p = core p.p_core @ List.concat_map (fun (_, m) -> go m) p.p_members in
  go p

(* Materialize the slots of every exercised operator. *)
let actuals (p : t) : op_actual list =
  List.map
    (fun (op, kind, label) ->
      let s = op.op_slot in
      { a_id = op.op_id;
        a_kind = kind;
        a_label = label;
        a_loops = s.o_loops;
        a_rows = s.o_rows;
        a_elapsed_s = s.o_elapsed_s;
        a_pages = s.o_pages;
        a_probes = s.o_probes })
    (labeled_ops p)

let actual_suffix (a : op_actual) =
  Printf.sprintf "(op %d: rows=%d loops=%d%s time=%.3fms pages=%d)" a.a_id a.a_rows a.a_loops
    (if a.a_probes > 0 then Printf.sprintf " probes=%d" a.a_probes else "")
    (a.a_elapsed_s *. 1000.) a.a_pages

(* Optimizer trailer lines: what the pass did, and the delta-safety
   verdict ROADMAP item 4 consumes.  Empty when the plan never went
   through the optimizer. *)
let opt_trailer (p : t) : string list =
  match p.p_opt with
  | None -> []
  | Some oi ->
    (if oi.oi_folds = 0 && oi.oi_pruned = 0 then []
     else [ Printf.sprintf "OPT (folded=%d pruned=%d)" oi.oi_folds oi.oi_pruned ])
    @ [ (if oi.oi_delta_safe then "DELTA-SAFE: yes"
         else Printf.sprintf "DELTA-SAFE: no (%s)" oi.oi_delta_reason) ]

(* Per-node optimizer annotation, keyed by the operator's stable id. *)
let opt_note (p : t) (id : int) : string =
  match p.p_opt with
  | None -> ""
  | Some oi ->
    (match List.assoc_opt id oi.oi_notes with Some n -> " [" ^ n ^ "]" | None -> "")

(* EXPLAIN ANALYZE rendering: each planner-choice line annotated with
   the actuals recorded during the instrumented execution. *)
let render_analyzed (p : t) : string list =
  List.map
    (fun a -> Printf.sprintf "%-44s %s%s" a.a_label (actual_suffix a) (opt_note p a.a_id))
    (actuals p)
  @ opt_trailer p

(* Render the plan as EXPLAIN QUERY PLAN lines (SQLite-flavored). *)
let render (p : t) : string list =
  let core_lines (c : core) =
    if c.c_empty then [ "EMPTY SCAN (always-false WHERE)" ]
    else
      match c.c_from with
      | From_none -> []
      | From_scan { first; joins; _ } ->
        (scan_line first ^ opt_note p first.sc_op.op_id)
        :: List.map (fun js -> join_line js ^ opt_note p js.j_op.op_id) joins
  in
  let lines = core_lines p.p_core in
  let lines =
    if p.p_members = [] then lines
    else lines @ [ Printf.sprintf "COMPOUND (%d UNION members)" (List.length p.p_members) ]
  in
  lines
  @ (if p.p_core.c_group <> [] then [ "USE TEMP B-TREE FOR GROUP BY" ] else [])
  @ (if p.p_core.c_distinct then [ "USE TEMP B-TREE FOR DISTINCT" ] else [])
  @ (if p.p_core.c_order <> [] || p.p_corder <> [] then [ "USE TEMP B-TREE FOR ORDER BY" ]
     else [])
  @ opt_trailer p
