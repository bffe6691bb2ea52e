(* The post-planning optimizer: runs between [Planner.plan] and
   [Exec.stream_plan] over the typed plan IR.

   Three jobs, all differentially testable against `PRAGMA optimize=off`:

   1. Constant folding / strength reduction of every expression slot of
      the plan, via the abstract interpreter in [Absint].  Folds are
      exact by construction (the real evaluator computes them).

   2. Predicate pruning over filter conjunct lists and index bounds.
      Dropping an always-true conjunct from a filter list is sound
      because the executor's [pass] is a [for_all] over truth values;
      an always-false (or NULL) conjunct proves the list rejects every
      row, collapsing the core to an empty scan ([c_empty]).  Interval
      reasoning over (column, comparison, constant) atoms uses the
      total order of [R.compare_value], which makes implication and
      contradiction sound for every runtime value type at once — a row
      whose column is NULL fails both atoms of any such pair anyway.
      Emptiness is only declared when every expression of the FROM
      pipeline is [Absint.droppable], so runtime errors and UDF effects
      the naive path would produce are preserved.

   3. A delta-safety verdict ([oi_delta_safe] + reason), the gate of
      the RQL loop's incremental evaluation ([Incr]): a projection, or
      aggregates (none DISTINCT), over one sequential heap scan and
      hash joins over heap tables, no other join, no LIMIT / OFFSET /
      DISTINCT / UNION, no ORDER BY without an aggregate, no
      subqueries, no UDF calls, no parameter outside the AS OF.

   Warnings use stable W2xx codes through [Diag]:
     W201  always-false predicate; plan collapsed to an empty scan
     W202  always-true / implied predicate pruned
     W203  contradictory constant bounds; plan collapsed to empty
     W204  redundant index bound dropped *)

module R = Storage.Record
open Ast

let c_folds = Obs.Scope.counter "sql.opt_folds"
let c_pruned_preds = Obs.Scope.counter "sql.opt_pruned_predicates"
let c_invariant_hoists = Obs.Scope.counter "sql.opt_invariant_hoists"

type st = {
  actx : Absint.ctx;
  mutable pruned : int;
  mutable diags : Diag.t list;          (* reversed *)
  mutable notes : (int * string) list;  (* reversed; op_id -> annotation *)
}

let warn st code msg = st.diags <- Diag.v ~severity:Diag.Warning code msg :: st.diags

let note st (op : Plan.op) parts =
  let parts = List.filter (fun s -> s <> "") parts in
  if parts <> [] then st.notes <- (op.Plan.op_id, String.concat " " parts) :: st.notes

(* Folds performed inside [f], off the shared counter. *)
let with_folds st f =
  let before = st.actx.Absint.folds in
  let r = f () in
  (r, st.actx.Absint.folds - before)

let fold_part n = if n > 0 then Printf.sprintf "folded=%d" n else ""
let prune_part n = if n > 0 then Printf.sprintf "pruned=%d" n else ""

(* --- conjunct-level interval reasoning -------------------------------- *)

(* (column, comparison, constant) with the column on the left.  NULL
   constants never reach here: [Absint] already folded such comparisons
   to [Lit Null]. *)
let flip = function Lt -> Gt | Le -> Ge | Gt -> Lt | Ge -> Le | op -> op

let atom_of = function
  | Binop (((Lt | Le | Gt | Ge | Eq) as op), Colidx i, Lit c) when c <> R.Null ->
    Some (i, op, c)
  | Binop (((Lt | Le | Gt | Ge | Eq) as op), Lit c, Colidx i) when c <> R.Null ->
    Some (i, flip op, c)
  | _ -> None

(* Decide, for the atoms of one column, which are implied by a sibling
   (droppable) and whether the set is contradictory.  Keys are [k]
   (caller-chosen identifiers).  All reasoning is over the total order
   [R.compare_value]: for any non-NULL x, [x > c1 && x < c2] implies
   [c1 < c2]; a NULL x fails every atom regardless. *)
let tighten_col (atoms : ('k * binop * R.value) list) : 'k list * bool =
  let cmp = R.compare_value in
  let eqs = List.filter (fun (_, op, _) -> op = Eq) atoms in
  let lowers = List.filter (fun (_, op, _) -> op = Gt || op = Ge) atoms in
  let uppers = List.filter (fun (_, op, _) -> op = Lt || op = Le) atoms in
  let drops = ref [] and contra = ref false in
  (match eqs with
  | (_, _, c0) :: rest ->
    (* an equality pins the value: every other atom is decided *)
    List.iter
      (fun (k, _, c) -> if cmp c c0 = 0 then drops := k :: !drops else contra := true)
      rest;
    List.iter
      (fun (k, op, c) ->
        let sat =
          match op with
          | Gt -> cmp c0 c > 0
          | Ge -> cmp c0 c >= 0
          | Lt -> cmp c0 c < 0
          | Le -> cmp c0 c <= 0
          | _ -> true
        in
        if sat then drops := k :: !drops else contra := true)
      (lowers @ uppers)
  | [] ->
    let strongest better = function
      | [] -> None
      | hd :: tl -> Some (List.fold_left (fun best a -> if better a best then a else best) hd tl)
    in
    (* lower bounds: larger constant is tighter; strict beats non-strict *)
    let lower_better (_, o1, c1) (_, o2, c2) =
      let d = cmp c1 c2 in
      d > 0 || (d = 0 && o1 = Gt && o2 = Ge)
    in
    let upper_better (_, o1, c1) (_, o2, c2) =
      let d = cmp c1 c2 in
      d < 0 || (d = 0 && o1 = Lt && o2 = Le)
    in
    let sl = strongest lower_better lowers and su = strongest upper_better uppers in
    (match sl with
    | Some ((sk, sop, sc) as _s) ->
      List.iter
        (fun (k, op, c) ->
          if k <> sk then
            let d = cmp sc c in
            if d > 0 || (d = 0 && (op = sop || sop = Gt)) then drops := k :: !drops)
        lowers
    | None -> ());
    (match su with
    | Some (sk, sop, sc) ->
      List.iter
        (fun (k, op, c) ->
          if k <> sk then
            let d = cmp sc c in
            if d < 0 || (d = 0 && (op = sop || sop = Lt)) then drops := k :: !drops)
        uppers
    | None -> ());
    (match sl, su with
    | Some (_, lop, lc), Some (_, uop, uc) ->
      let d = cmp lc uc in
      if d > 0 || (d = 0 && (lop = Gt || uop = Lt)) then contra := true
    | _ -> ()));
  (!drops, !contra)

type pruned_list = {
  kept : expr list;
  dropped : int;
  empty : bool;
}

(* Prune one filter conjunct list (expressions already simplified).
   [allow_empty] gates the collapse-to-empty rewrite on the
   droppability of the surrounding FROM pipeline. *)
let prune_filters st ~what ~allow_empty (filters : expr list) : pruned_list =
  (* literal conjuncts *)
  let empty = ref false in
  let kept =
    List.filter
      (fun e ->
        match e with
        | Lit v when Expr.truth v = Some true ->
          st.pruned <- st.pruned + 1;
          warn st "W202" (Printf.sprintf "always-true predicate on %s pruned" what);
          false
        | Lit _ ->
          if allow_empty && not !empty then begin
            empty := true;
            warn st "W201"
              (Printf.sprintf "always-false predicate on %s; empty result" what)
          end;
          true
        | _ -> true)
      filters
  in
  let true_dropped = List.length filters - List.length kept in
  if !empty then { kept = []; dropped = List.length filters; empty = true }
  else begin
    (* interval reasoning over (col, cmp, const) atoms, per column *)
    let atoms =
      List.concat
        (List.mapi
           (fun k e -> match atom_of e with Some (i, op, c) -> [ (i, (k, op, c)) ] | None -> [])
           kept)
    in
    let cols = List.sort_uniq compare (List.map fst atoms) in
    let to_drop = Hashtbl.create 4 in
    let contra = ref false in
    List.iter
      (fun col ->
        let catoms = List.filter_map (fun (i, a) -> if i = col then Some a else None) atoms in
        if List.length catoms > 1 then begin
          let drops, c = tighten_col catoms in
          List.iter (fun k -> Hashtbl.replace to_drop k ()) drops;
          if c then contra := true
        end)
      cols;
    if !contra && allow_empty then begin
      warn st "W203" (Printf.sprintf "contradictory constant bounds on %s; empty result" what);
      { kept = []; dropped = true_dropped + List.length kept; empty = true }
    end
    else begin
      let n0 = List.length kept in
      let kept = List.filteri (fun k _ -> not (Hashtbl.mem to_drop k)) kept in
      let implied = n0 - List.length kept in
      if implied > 0 then begin
        st.pruned <- st.pruned + implied;
        warn st "W202"
          (Printf.sprintf "%d predicate(s) on %s implied by a tighter sibling; pruned" implied
             what)
      end;
      { kept; dropped = true_dropped + implied; empty = false }
    end
  end

(* Tighten the bounds of an index search: redundant bounds on the same
   column are dropped (W204), contradictory ones empty the scan (W203).
   Only literal bounds participate; parameters stay untouched. *)
let tighten_bounds st ~what ~allow_empty (access : Plan.access) : Plan.access * int * bool =
  match access with
  | Plan.Seq_scan -> (access, 0, false)
  | Plan.Index_search { ix; bounds } ->
    let atoms =
      List.concat
        (List.mapi
           (fun k (col, op, e) ->
             match op, e with
             | (Lt | Le | Gt | Ge | Eq), Lit c when c <> R.Null -> [ (col, (k, op, c)) ]
             | _ -> [])
           bounds)
    in
    let cols = List.sort_uniq compare (List.map fst atoms) in
    let to_drop = Hashtbl.create 4 in
    let contra = ref false in
    List.iter
      (fun col ->
        let catoms = List.filter_map (fun (i, a) -> if i = col then Some a else None) atoms in
        if List.length catoms > 1 then begin
          let drops, c = tighten_col catoms in
          List.iter (fun k -> Hashtbl.replace to_drop k ()) drops;
          if c then contra := true
        end)
      cols;
    if !contra && allow_empty then begin
      warn st "W203"
        (Printf.sprintf "contradictory index bounds on %s; empty result" what);
      (Plan.Index_search { ix; bounds }, 0, true)
    end
    else begin
      let n0 = List.length bounds in
      let bounds = List.filteri (fun k _ -> not (Hashtbl.mem to_drop k)) bounds in
      let dropped = n0 - List.length bounds in
      if dropped > 0 then begin
        st.pruned <- st.pruned + dropped;
        warn st "W204"
          (Printf.sprintf "%d redundant index bound(s) on %s dropped" dropped what)
      end;
      (Plan.Index_search { ix; bounds }, dropped, false)
    end

(* --- core optimization ------------------------------------------------- *)

(* Every expression of the FROM pipeline must be droppable before the
   plan may collapse to an empty scan: [c_empty] skips the whole
   pipeline, so anything that could raise or have effects there must
   keep running on the naive path too. *)
let from_droppable (fp : Plan.from_plan) : bool =
  let ok = ref true in
  ignore
    (Plan.map_from
       (fun e ->
         if not (Absint.droppable e) then ok := false;
         e)
       fp);
  !ok

let opt_core st (c : Plan.core) : Plan.core =
  let simp e = Absint.simplify st.actx e in
  let empty = ref false in
  let c_from =
    match c.Plan.c_from with
    | Plan.From_none -> Plan.From_none
    | Plan.From_scan { first; joins; residual } ->
      let allow_empty =
        from_droppable (Plan.From_scan { first; joins; residual })
      in
      (* driving scan *)
      let tname = first.Plan.sc_src.Plan.s_tbl.Catalog.tname in
      let (access, filters), sfolds =
        with_folds st (fun () ->
            (Plan.map_access simp first.Plan.sc_access, List.map simp first.Plan.sc_filters))
      in
      let pr = prune_filters st ~what:tname ~allow_empty filters in
      let access, bdropped, bempty = tighten_bounds st ~what:tname ~allow_empty access in
      if pr.empty || bempty then empty := true;
      note st first.Plan.sc_op
        [ fold_part sfolds;
          prune_part (pr.dropped + bdropped);
          (if pr.empty || bempty then "empty" else "") ];
      let first = { first with Plan.sc_access = access; sc_filters = pr.kept } in
      (* joins *)
      let joins =
        List.map
          (fun (js : Plan.join_step) ->
            let jname = js.Plan.j_src.Plan.s_tbl.Catalog.tname in
            let j_plan, jfolds =
              with_folds st (fun () -> Plan.map_join simp js.Plan.j_plan)
            in
            let j_plan, jdropped, jempty =
              match j_plan with
              | Plan.Nested_loop { filters } ->
                let pr = prune_filters st ~what:jname ~allow_empty filters in
                (Plan.Nested_loop { filters = pr.kept }, pr.dropped, pr.empty)
              | Plan.Hash_join { equi; filters } ->
                let pr = prune_filters st ~what:jname ~allow_empty filters in
                (Plan.Hash_join { equi; filters = pr.kept }, pr.dropped, pr.empty)
              | Plan.Index_probe { ix; equi; filters } ->
                let pr = prune_filters st ~what:jname ~allow_empty filters in
                (Plan.Index_probe { ix; equi; filters = pr.kept }, pr.dropped, pr.empty)
              | Plan.Left_hash { equi; inner_filters; residual } ->
                (* LEFT JOIN preserves outer rows: an always-false inner
                   side NULL-pads instead of emptying, so never collapse *)
                let pi =
                  prune_filters st ~what:jname ~allow_empty:false inner_filters
                in
                let pres =
                  prune_filters st ~what:(jname ^ " (left join)") ~allow_empty:false residual
                in
                ( Plan.Left_hash { equi; inner_filters = pi.kept; residual = pres.kept },
                  pi.dropped + pres.dropped,
                  false )
            in
            if jempty then empty := true;
            note st js.Plan.j_op
              [ fold_part jfolds; prune_part jdropped; (if jempty then "empty" else "") ];
            { js with Plan.j_plan })
          joins
      in
      (* post-join residual *)
      let residual, rfolds = with_folds st (fun () -> List.map simp residual) in
      let pres = prune_filters st ~what:"join residual" ~allow_empty residual in
      if pres.empty then empty := true;
      note st c.Plan.c_filter_op
        [ fold_part rfolds;
          prune_part pres.dropped;
          (if pres.empty then "empty" else "") ];
      Plan.From_scan { first; joins; residual = pres.kept }
  in
  (* projection / aggregation / sort / limit *)
  let (c_aggs, c_group, c_having), agg_folds =
    with_folds st (fun () ->
        ( List.map (fun a -> { a with agg_arg = Option.map simp a.agg_arg }) c.Plan.c_aggs,
          List.map simp c.Plan.c_group,
          Option.map simp c.Plan.c_having ))
  in
  (* an always-true HAVING filters nothing; drop it *)
  let c_having, hpruned =
    match c_having with
    | Some (Lit v) when Expr.truth v = Some true ->
      st.pruned <- st.pruned + 1;
      warn st "W202" "always-true HAVING pruned";
      (None, 1)
    | h -> (h, 0)
  in
  note st c.Plan.c_agg_op [ fold_part agg_folds; prune_part hpruned ];
  let c_order, sort_folds =
    with_folds st (fun () ->
        List.map
          (fun (k, d) ->
            ((match k with Plan.Out_col _ as k -> k | Plan.Key_expr e -> Plan.Key_expr (simp e)), d))
          c.Plan.c_order)
  in
  note st c.Plan.c_sort_op [ fold_part sort_folds ];
  let (c_out, c_limit, c_offset), out_folds =
    with_folds st (fun () ->
        ( List.map simp c.Plan.c_out,
          Option.map simp c.Plan.c_limit,
          Option.map simp c.Plan.c_offset ))
  in
  note st c.Plan.c_out_op [ fold_part out_folds ];
  { c with
    Plan.c_from;
    c_out;
    c_aggs;
    c_group;
    c_having;
    c_order;
    c_limit;
    c_offset;
    c_empty = c.Plan.c_empty || !empty }

let rec opt_plan st (p : Plan.t) : Plan.t =
  let p_as_of = Option.map (Absint.simplify st.actx) p.Plan.p_as_of in
  let p_core = opt_core st p.Plan.p_core in
  let p_members = List.map (fun (all, m) -> (all, opt_plan st m)) p.Plan.p_members in
  let (p_climit, p_coffset), _ =
    with_folds st (fun () ->
        (Option.map (Absint.simplify st.actx) p.Plan.p_climit,
         Option.map (Absint.simplify st.actx) p.Plan.p_coffset))
  in
  { p with Plan.p_as_of; p_core; p_members; p_climit; p_coffset }

(* --- plan-level classification ----------------------------------------- *)

exception Unsafe of string

(* Walk every expression node of every core slot, the AS OF expression
   excepted (not descending into subquery selects — a subquery node
   itself is already a verdict). *)
let scan_plan_exprs (f : expr -> unit) (p : Plan.t) : unit =
  let scan e = ignore (Expr.map (fun x -> f x; x) e) in
  let rec go p =
    ignore
      (Plan.map_core
         (fun e ->
           scan e;
           e)
         p.Plan.p_core);
    Option.iter scan p.Plan.p_climit;
    Option.iter scan p.Plan.p_coffset;
    List.iter (fun (_, m) -> go m) p.Plan.p_members
  in
  go p

(* The delta-safety gate of incremental RQL evaluation ([Incr]): the
   verdict plus the first disqualifying reason.  A safe plan is one
   heap scan, and hash joins over heap tables, feeding filters and a
   projection or aggregates, whose result for a snapshot depends only
   on that snapshot's heap pages — so what one snapshot's evaluation
   kept of a page stays valid for every page the next snapshot did not
   change.  A core that does not aggregate must also return its rows
   in scan order (no ORDER BY).
   Other joins stay plain: a LEFT JOIN pads unmatched rows, a nested
   loop has no key to index pages by, and an index probe reads rows in
   the persistent index's order.  [Incr] runs exactly the plans this
   accepts. *)
let delta_verdict ~pure_fn (p : Plan.t) : bool * string =
  match
    if p.Plan.p_members <> [] then raise (Unsafe "compound (UNION)");
    let c = p.Plan.p_core in
    (match c.Plan.c_from with
    | Plan.From_none -> raise (Unsafe "no table")
    | Plan.From_scan { first = { Plan.sc_access = Plan.Index_search _; _ }; _ } ->
      raise (Unsafe "index search (rows arrive in index order)")
    | Plan.From_scan { first; joins; _ } ->
      let heap (s : Plan.source) =
        if s.Plan.s_tbl.Catalog.theap < 0 then raise (Unsafe "system table")
      in
      heap first.Plan.sc_src;
      List.iter
        (fun (js : Plan.join_step) ->
          match js.Plan.j_plan with
          | Plan.Hash_join _ -> heap js.Plan.j_src
          | Plan.Left_hash _ -> raise (Unsafe "left join")
          | Plan.Nested_loop _ -> raise (Unsafe "nested-loop join")
          | Plan.Index_probe _ -> raise (Unsafe "index probe join"))
        joins);
    if c.Plan.c_limit <> None || c.Plan.c_offset <> None || p.Plan.p_climit <> None
       || p.Plan.p_coffset <> None
    then raise (Unsafe "LIMIT/OFFSET");
    if c.Plan.c_distinct then raise (Unsafe "DISTINCT");
    (* A row core's output must stay in scan order: a delta reports
       its changed rows by the chain position of their pages. *)
    if (not c.Plan.c_has_agg) && c.Plan.c_order <> [] then raise (Unsafe "ORDER BY");
    (* Every aggregate the executor has can be kept per page and
       recombined exactly — except over DISTINCT values, which one page
       cannot know are distinct overall. *)
    List.iter
      (fun (a : agg) ->
        if a.agg_distinct then raise (Unsafe ("DISTINCT aggregate " ^ agg_fn_name a.agg_fn)))
      c.Plan.c_aggs;
    (* The AS OF expression is the snapshot binding itself; anywhere
       else a parameter (current_snapshot() in a Qq) makes every row's
       contribution snapshot-dependent. *)
    scan_plan_exprs
      (function
        | Subquery _ | In_select _ | Exists _ -> raise (Unsafe "subquery")
        | Call (n, _) when not (pure_fn n) -> raise (Unsafe ("calls UDF " ^ n))
        | Param _ -> raise (Unsafe "reads current_snapshot()")
        | _ -> ())
      p
  with
  | () -> (true, "")
  | exception Unsafe reason -> (false, reason)

let rec any_empty (p : Plan.t) : bool =
  p.Plan.p_core.Plan.c_empty || List.exists (fun (_, m) -> any_empty m) p.Plan.p_members

(* --- entry point -------------------------------------------------------- *)

(* Optimize a freshly planned [p].  Returns the rewritten plan (with
   [p_opt] describing what happened) and the W2xx warnings produced.
   [is_udf] must answer whether a name is shadowed by a session UDF, so
   folding never bypasses user functions. *)
let optimize ~fnctx ~is_udf (p : Plan.t) : Plan.t * Diag.t list =
  let pure_fn name = (not (is_udf name)) && Func.find name <> None in
  let st =
    { actx = Absint.make_ctx ~fnctx ~pure_fn; pruned = 0; diags = []; notes = [] }
  in
  let p' = opt_plan st p in
  let folds = st.actx.Absint.folds in
  let delta_safe, delta_reason = delta_verdict ~pure_fn p' in
  Obs.Scope.add c_folds folds;
  Obs.Scope.add c_pruned_preds st.pruned;
  (* folds inside an AS OF / parameterized-Qq plan are computed once at
     plan time instead of once per snapshot iteration: hoists *)
  if p'.Plan.p_as_of <> None then Obs.Scope.add c_invariant_hoists folds;
  let oi =
    { Plan.oi_folds = folds;
      oi_pruned = st.pruned;
      oi_empty = any_empty p';
      oi_delta_safe = delta_safe;
      oi_delta_reason = delta_reason;
      oi_notes = List.rev st.notes }
  in
  ({ p' with Plan.p_opt = Some oi }, List.rev st.diags)

(* The one way a SELECT is planned, at the top of a statement and
   inside it (subqueries, INSERT ... SELECT, CREATE TABLE ... AS
   SELECT, a UNION member with its own AS OF): [Planner.plan] against
   [cat], then [optimize] unless PRAGMA optimize=off turned the pass
   off on [db].  The W2xx warnings are what EXPLAIN LINT reports;
   execution drops them. *)
let plan (db : Db.t) ~cat (sel : select) : Plan.t * Diag.t list =
  let fnctx = Db.fn_ctx db in
  let p = Planner.plan ~cat ~fnctx sel in
  if db.Db.optimize then optimize ~fnctx ~is_udf:(Db.is_udf db) p else (p, [])
