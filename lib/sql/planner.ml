(* Query planning: translate a SELECT AST into a typed Plan.t.

   Extracted from the old monolithic exec.ml.  Planning is
   deliberately SQLite-flavoured:
   - single-table predicates choose a native index when one matches the
     leading index column, else a sequential heap scan;
   - equi-joins probe a native index when the inner table has one on the
     join column, and otherwise build an ephemeral hash index over the
     inner table — the analogue of SQLite's automatic covering index,
     whose construction cost the paper's Fig 9 isolates.

   Planning is pure: it reads the catalog but executes nothing, so a
   plan can be built once and executed many times (prepared statements,
   the RQL snapshot loop).  Uncorrelated subqueries are left in place
   and expanded by the executor per execution; consequently a
   subquery-derived constant is a filter, not an index bound. *)

module R = Storage.Record
open Ast

let error = Sql_error.error

let c_plans_built = Obs.Scope.counter "sql.plans_built"

(* --- name resolution ---------------------------------------------------

   Each rule below is stated once: the analyzer checks a statement by
   calling these functions, so it rejects a name exactly when planning
   would. *)

let lc = String.lowercase_ascii

(* A FROM table's source: its alias (or name), lowercased, and its
   columns' place in the row after [sources]'. *)
let source (sources : Plan.source list) (tr : table_ref) tbl =
  { Plan.s_tbl = tbl;
    s_alias = lc (Option.value tr.tbl_alias ~default:tr.tbl_name);
    s_offset =
      List.fold_left
        (fun acc (s : Plan.source) -> acc + Array.length s.Plan.s_tbl.Catalog.tcols)
        0 sources }

(* The (source, column) pairs a reference names: a qualified reference
   looks only at the source of that alias, and a name met twice is
   ambiguous. *)
let match_col (sources : Plan.source list) q n =
  let n = lc n in
  let hits =
    List.concat_map
      (fun (s : Plan.source) ->
        match q with
        | Some q when lc q <> s.Plan.s_alias -> []
        | _ ->
          let hits = ref [] in
          Array.iteri
            (fun i (cn, _) -> if lc cn = n then hits := (s, i) :: !hits)
            s.Plan.s_tbl.Catalog.tcols;
          !hits)
      sources
  in
  match hits with [ hit ] -> `One hit | [] -> `None | _ -> `Many

let find_col sources q n =
  match match_col sources q n with
  | `One ((s : Plan.source), i) -> s.Plan.s_offset + i
  | `None -> error "no such column: %s%s" (match q with Some q -> q ^ "." | None -> "") (lc n)
  | `Many -> error "ambiguous column name: %s" (lc n)

let is_from_col sources n = match match_col sources None n with `One _ -> true | _ -> false

(* Rewrite Col nodes to positional Colidx against [sources]. *)
let resolve sources e =
  Expr.map (function Col (q, n) -> Colidx (find_col sources q n) | e -> e) e

(* Try to resolve [e] against only [sources]; None if it references
   other columns. *)
let try_resolve sources e = try Some (resolve sources e) with Sql_error.Error _ -> None

(* A column's position in its table, by name (DML targets, index
   columns). *)
let col_pos (tbl : Catalog.table) name =
  let n = lc name in
  let rec go i =
    if i >= Array.length tbl.Catalog.tcols then
      error "table %s has no column %s" tbl.Catalog.tname name
    else if lc (fst tbl.Catalog.tcols.(i)) = n then i
    else go (i + 1)
  in
  go 0

(* A FROM table: the catalog's, else a sys_* virtual table, resolved
   the same under AS OF (they reflect current process state, not
   history). *)
let lookup_table cat name =
  match Catalog.find_table cat name with
  | Some t -> t
  | None -> (
    match Systables.lookup name with
    | Some t -> t
    | None -> error "no such table: %s" name)

let source_of_table (tbl : Catalog.table) =
  source [] { tbl_name = tbl.Catalog.tname; tbl_alias = None } tbl

(* Resolve an expression against a single table (DML helper). *)
let resolve_against_table (tbl : Catalog.table) e = resolve [ source_of_table tbl ] e

(* --- sargable bounds -------------------------------------------------- *)

let contains_param e =
  let exception Found in
  try
    ignore (Expr.map (function Param _ -> raise_notrace Found | e -> e) e);
    false
  with Found -> true

(* No column references, aggregates or subqueries anywhere: the
   expression has the same value for every row of the scan. *)
let row_independent e =
  let exception No in
  try
    ignore
      (Expr.map
         (function
           | ( Col _ | Colidx _ | Agg _ | Aggref _ | Subquery _ | In_select _ | Exists _
             | In_set _ ) ->
             raise_notrace No
           | e -> e)
         e);
    true
  with No -> false

(* A conjunct side usable as an index bound: constant-evaluable and not
   statically NULL, or a row-independent parameter expression (bound at
   execution time).  Bound conjuncts also remain ordinary filters, so a
   NULL parameter binding stays correct. *)
let bound_value fnctx e =
  (* lint: allow catch-all — a UDF in constant position may raise
     anything; any failure just means "not usable as an index bound" *)
  match (try Some (Expr.eval_const fnctx e) with _ -> None) with
  | Some R.Null -> None
  | Some _ -> Some e
  | None -> if contains_param e && row_independent e then Some e else None

(* A sargable bound extracted from a conjunct: (column position in the
   table, operator, value expression). *)
let extract_bound fnctx local conj : Plan.bound option =
  let flip = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | op -> op in
  match try_resolve local conj with
  | None -> None
  | Some (Binop (((Eq | Lt | Le | Gt | Ge) as op), Colidx i, rhs)) -> (
    match bound_value fnctx rhs with Some e -> Some (i, op, e) | None -> None)
  | Some (Binop (((Eq | Lt | Le | Gt | Ge) as op), lhs, Colidx i)) -> (
    match bound_value fnctx lhs with Some e -> Some (i, flip op, e) | None -> None)
  | Some _ -> None

(* Pick a native index for a single-table scan given extracted bounds;
   returns (index, bounds on its leading column), preferring equality
   bounds when any exist. *)
let pick_index cat (tbl : Catalog.table) (bounds : Plan.bound list) =
  let indexes = Catalog.indexes_of_table cat tbl.Catalog.tname in
  let rec go = function
    | [] -> None
    | (idx : Catalog.index) :: rest -> (
      match idx.Catalog.icols with
      | lead :: _ ->
        let lead_pos = col_pos tbl lead in
        let applicable = List.filter (fun (i, _, _) -> i = lead_pos) bounds in
        if applicable = [] then go rest
        else
          let eqs = List.filter (fun (_, op, _) -> op = Eq) applicable in
          Some (idx, if eqs <> [] then eqs else applicable)
      | [] -> go rest)
  in
  go indexes

(* --- FROM planning ---------------------------------------------------- *)

type conjunct = { mutable used : bool; cexpr : expr }

(* Plan the FROM clause: access path for the driving table, one join
   step per joined table, and the residual filter.  The conjunct pool
   (WHERE plus inner-join ON conditions) is consumed in the same order
   the old pipeline builder used, so access-path choices are
   unchanged. *)
let plan_from ~cat ~fnctx (sel : select) : Plan.from_plan * Plan.source list =
  match sel.from with
  | None -> (Plan.From_none, [])
  | Some (first_ref, joins) ->
    let pool =
      List.map
        (fun e -> { used = false; cexpr = e })
        (List.concat_map Expr.conjuncts
           ((match sel.where with Some w -> [ w ] | None -> [])
           @ List.filter_map
               (fun j -> if j.join_kind = Join_inner then j.join_on else None)
               joins))
    in
    (* first table *)
    let t0 = lookup_table cat first_ref.tbl_name in
    let st0 = source [] first_ref t0 in
    let local0 = [ st0 ] in
    let bounds0 =
      List.filter_map
        (fun c -> if c.used then None else extract_bound fnctx local0 c.cexpr)
        pool
    in
    (* single-table conjuncts become local filters; bound conjuncts stay
       among them (the index narrows the scan, the filter re-checks) *)
    let filters0_pairs =
      List.filter_map
        (fun c ->
          if c.used then None
          else match try_resolve local0 c.cexpr with Some r -> Some (c, r) | None -> None)
        pool
    in
    List.iter (fun (c, _) -> c.used <- true) filters0_pairs;
    let access0 =
      match pick_index cat t0 bounds0 with
      | Some (ix, bounds) -> Plan.Index_search { ix; bounds }
      | None -> Plan.Seq_scan
    in
    let first =
      { Plan.sc_src = st0; sc_access = access0; sc_filters = List.map snd filters0_pairs;
        sc_op = Plan.mk_op () }
    in
    (* fold joins *)
    let add_join (sources, steps) (j : join_clause) =
      let st = source sources j.join_table (lookup_table cat j.join_table.tbl_name) in
      let t = st.Plan.s_tbl in
      let local = [ { st with Plan.s_offset = 0 } ] in
      let sources' = sources @ [ st ] in
      if j.join_kind = Join_left then begin
        (* LEFT JOIN: the ON conjuncts define the match; unmatched left
           rows are padded with NULLs.  WHERE conjuncts touching this
           table stay in the pool and filter after the join. *)
        let conjs = Expr.conjuncts (Option.get j.join_on) in
        let inner_filters, rest =
          List.partition (fun c -> try_resolve local c <> None) conjs
        in
        let inner_filters = List.filter_map (try_resolve local) inner_filters in
        let equi, residual_raw =
          List.partition_map
            (fun c ->
              match c with
              | Binop (Eq, a, b) -> (
                match try_resolve sources a, try_resolve local b with
                | Some la, Some rb -> Left (la, rb)
                | _ -> (
                  match try_resolve sources b, try_resolve local a with
                  | Some lb, Some ra -> Left (lb, ra)
                  | _ -> Right c))
              | c -> Right c)
            rest
        in
        let residual = List.map (resolve sources') residual_raw in
        ( sources',
          steps
          @ [ { Plan.j_src = st;
                j_plan = Plan.Left_hash { equi; inner_filters; residual };
                j_op = Plan.mk_op () } ]
        )
      end
      else begin
        (* single-table predicates for the new table *)
        let filters =
          List.filter_map
            (fun c ->
              if c.used then None
              else
                match try_resolve local c.cexpr with
                | Some r ->
                  c.used <- true;
                  Some r
                | None -> None)
            pool
        in
        (* equi-join keys: conjunct  left_expr = right_col_expr *)
        let equi =
          List.filter_map
            (fun c ->
              if c.used then None
              else
                match c.cexpr with
                | Binop (Eq, a, b) -> (
                  match try_resolve sources a, try_resolve local b with
                  | Some la, Some rb ->
                    c.used <- true;
                    Some (la, rb)
                  | _ -> (
                    match try_resolve sources b, try_resolve local a with
                    | Some lb, Some ra ->
                      c.used <- true;
                      Some (lb, ra)
                    | _ -> None))
                | _ -> None)
            pool
        in
        let j_plan =
          match equi with
          | [] -> Plan.Nested_loop { filters }
          | _ -> (
            (* native index probe if the inner side is a single indexed
               column *)
            let native =
              match List.map snd equi with
              | [ Colidx i ] ->
                let cname = fst t.Catalog.tcols.(i) in
                List.find_opt
                  (fun (idx : Catalog.index) ->
                    match idx.Catalog.icols with
                    | [ c ] -> lc c = lc cname
                    | _ -> false)
                  (Catalog.indexes_of_table cat t.Catalog.tname)
              | _ -> None
            in
            match native with
            | Some ix -> Plan.Index_probe { ix; equi; filters }
            | None -> Plan.Hash_join { equi; filters })
        in
        (sources', steps @ [ { Plan.j_src = st; j_plan; j_op = Plan.mk_op () } ])
      end
    in
    let sources, steps = List.fold_left add_join ([ st0 ], []) joins in
    (* residual conjuncts against the combined row *)
    let residual =
      List.filter_map (fun c -> if c.used then None else Some (resolve sources c.cexpr)) pool
    in
    (Plan.From_scan { first; joins = steps; residual }, sources)

(* --- output / aggregate / order planning ------------------------------ *)

let expand_items sources (items : sel_item list) =
  List.concat_map
    (fun item ->
      match item with
      | Star ->
        List.concat_map
          (fun (s : Plan.source) ->
            Array.to_list
              (Array.mapi
                 (fun i (n, _) -> (Colidx (s.Plan.s_offset + i), n))
                 s.Plan.s_tbl.Catalog.tcols))
          sources
      | Table_star a ->
        let a = lc a in
        let s =
          match List.find_opt (fun (s : Plan.source) -> s.Plan.s_alias = a) sources with
          | Some s -> s
          | None -> error "no such table: %s" a
        in
        Array.to_list
          (Array.mapi (fun i (n, _) -> (Colidx (s.Plan.s_offset + i), n)) s.Plan.s_tbl.Catalog.tcols)
      | Sel_expr (e, alias) ->
        let name =
          match alias, e with
          | Some a, _ -> a
          | None, Col (_, n) -> n
          | None, _ -> ""
        in
        [ (e, name) ])
    items

(* Output column names; an anonymous expression is expr_<position>. *)
let header names =
  Array.of_list
    (List.mapi (fun i n -> if n = "" then Printf.sprintf "expr_%d" (i + 1) else n) names)

(* SQLite lets GROUP BY / HAVING / ORDER BY reference output aliases: a
   bare name that is not a FROM column stands for the expression of the
   first output item ([expand_items]'s pairs) of that name. *)
let alias_subst sources items e =
  Expr.map
    (function
      | Col (None, n) as c when not (is_from_col sources n) -> (
        let n = lc n in
        match List.find_opt (fun (_, name) -> lc name = n) items with
        | Some (aliased, _) -> aliased
        | None -> c)
      | e -> e)
    e

(* The last output column named [n], or -1. *)
let out_col header n =
  let idx = ref (-1) in
  Array.iteri (fun i h -> if lc h = lc n then idx := i) header;
  !idx

(* An ORDER BY item's target: a position, or the name of an output
   column that is not a FROM column, picks that output column; anything
   else is a key expression over the FROM columns. *)
let order_target sources header (o : order_item) =
  match o.ord_expr with
  | Lit (R.Int k) when k >= 1 && k <= Array.length header -> `Out (k - 1)
  | Col (None, n) when out_col header n >= 0 && not (is_from_col sources n) ->
    `Out (out_col header n)
  | e -> `Key e

(* A compound SELECT's ORDER BY item: an output column by position or
   name. *)
let compound_order_index header (o : order_item) =
  let width = Array.length header in
  match o.ord_expr with
  | Lit (R.Int k) when k >= 1 && k <= width -> k - 1
  | Lit (R.Int k) -> error "compound ORDER BY position %d is out of range (1..%d)" k width
  | Col (None, n) when out_col header n >= 0 -> out_col header n
  | Col (_, n) -> error "no such output column in compound ORDER BY: %s" n
  | _ -> error "compound ORDER BY must reference output columns by name or position"

(* Replace Agg nodes with Aggref slots, collecting specs (deduplicated
   structurally). *)
let lift_aggs specs e =
  Expr.map
    (function
      | Agg a ->
        let rec find i = function
          | [] ->
            specs := !specs @ [ a ];
            Aggref i
          | s :: _ when s = a -> Aggref i
          | _ :: rest -> find (i + 1) rest
        in
        find 0 !specs
      | e -> e)
    e

(* Plan one SELECT core (UNION members are handled by [plan]). *)
let plan_core ~cat ~fnctx (sel : select) : Plan.core =
  let c_from, sources = plan_from ~cat ~fnctx sel in
  let items = expand_items sources sel.items in
  let header = header (List.map snd items) in
  let raw_exprs = List.map fst items in
  let alias_subst = alias_subst sources items in
  let specs = ref [] in
  let out_exprs = List.map (fun e -> lift_aggs specs (resolve sources e)) raw_exprs in
  let group_exprs = List.map (fun e -> resolve sources (alias_subst e)) sel.group_by in
  let having_expr =
    Option.map (fun e -> lift_aggs specs (resolve sources (alias_subst e))) sel.having
  in
  let order_resolved =
    List.map
      (fun o ->
        match order_target sources header o with
        | `Out i -> (Plan.Out_col i, o.ord_desc)
        | `Key e -> (Plan.Key_expr (lift_aggs specs (resolve sources e)), o.ord_desc))
      sel.order_by
  in
  let has_agg =
    sel.group_by <> [] || !specs <> []
    || List.exists Expr.has_aggregate raw_exprs
    || (match sel.having with Some h -> Expr.has_aggregate h | None -> false)
  in
  { Plan.c_from;
    c_header = header;
    c_out = out_exprs;
    c_aggs = !specs;
    c_has_agg = has_agg;
    c_group = group_exprs;
    c_having = having_expr;
    c_order = order_resolved;
    c_distinct = sel.distinct;
    c_limit = sel.limit;
    c_offset = sel.offset;
    c_empty = false;
    c_filter_op = Plan.mk_op ();
    c_agg_op = Plan.mk_op ();
    c_sort_op = Plan.mk_op ();
    c_out_op = Plan.mk_op () }

let rec plan_select ~cat ~fnctx (sel : select) : Plan.t =
  if sel.union_with = [] then
    { Plan.p_src = sel;
      p_as_of = sel.as_of;
      p_core = plan_core ~cat ~fnctx sel;
      p_members = [];
      p_corder = [];
      p_climit = None;
      p_coffset = None;
      p_opt = None }
  else begin
    (* compound: the first member keeps the record's DISTINCT/GROUP BY;
       trailing ORDER BY / LIMIT belong to the whole compound and must
       reference output columns *)
    let base = { sel with union_with = []; order_by = []; limit = None; offset = None } in
    let core = plan_core ~cat ~fnctx base in
    let members = List.map (fun (all, m) -> (all, plan_select ~cat ~fnctx m)) sel.union_with in
    { Plan.p_src = sel;
      p_as_of = sel.as_of;
      p_core = core;
      p_members = members;
      p_corder =
        List.map (fun o -> (compound_order_index core.Plan.c_header o, o.ord_desc)) sel.order_by;
      p_climit = sel.limit;
      p_coffset = sel.offset;
      p_opt = None }
  end

(* Public entry point: plan a SELECT against a catalog. *)
let plan ~cat ~fnctx (sel : select) : Plan.t =
  Obs.Scope.incr c_plans_built;
  Plan.number_ops (plan_select ~cat ~fnctx sel)

(* Single-table access planning for DML row matching. *)
let plan_table ~cat ~fnctx (tbl : Catalog.table) (where : expr option) : Plan.scan =
  let st = source_of_table tbl in
  let local = [ st ] in
  let conjs = match where with None -> [] | Some w -> Expr.conjuncts w in
  let resolved = List.map (resolve local) conjs in
  let bounds = List.filter_map (extract_bound fnctx local) conjs in
  let access =
    match pick_index cat tbl bounds with
    | Some (ix, bounds) -> Plan.Index_search { ix; bounds }
    | None -> Plan.Seq_scan
  in
  { Plan.sc_src = st; sc_access = access; sc_filters = resolved; sc_op = Plan.mk_op () }
