(* Static semantic analysis: the pass between Parser and Planner.

   Every statement path runs this analysis before any planning or page
   access: the engine's statement wrapper behind exec, exec_script,
   exec_rows and exec_prepared (a prepared statement is analyzed once,
   by prepare or prepare_select), hence the shell, and the Qq / Qs
   front doors of all four RQL loop mechanisms.  It resolves names with
   the planner's own functions (Planner.lookup_table, match_col,
   col_pos, alias_subst, order_target) and types CAST by the evaluator's
   Expr.cast_class, without reading any data, so a statement it rejects
   would have failed at plan or eval time anyway, only later (possibly
   mid-loop, after SPT builds and page I/O, or mid-DML after rows were
   already touched).

   The checks are deliberately *sound with respect to execution*: the
   analyzer never rejects a statement the engine would execute
   successfully.  Where static knowledge runs out (parameters, UDF
   result types, AS OF statements whose historical schema may differ
   from the current catalog) it degrades to "unknown" and stays quiet.

   Diagnostics (Diag.t) carry stable codes:

     E001 no such table                  E010 AS OF must be an integer
     E002 no such column                 E011 LIMIT/OFFSET must be an integer
     E003 ambiguous column name          E012 UNION members differ in width
     E004 no such function               E013 sys_ namespace is reserved
     E005 wrong builtin arity            E020 current_snapshot() outside a loop
     E006 nested aggregate               E021 Qs must project one snapshot id
     E007 aggregate not allowed here     E022 Qq must be a SELECT
     E008 subquery must be one column
     E009 INSERT arity mismatch
     E030 VACUUM SNAPSHOTS retention must be a positive integer constant

     W101 subquery comparison defeats an index (filter, not a bound)
     W102 predicate is constant false/NULL
     W103 cross-affinity comparison (type ranks never match)
     W104 duplicate column name in CREATE TABLE
     W105 Qs snapshot-id column is not integer-typed
     W106 Qq carries its own AS OF (the loop overrides it per snapshot)

   Positions: the AST carries no spans, so the analyzer re-tokenizes
   the statement text (when available) and attaches the position of
   the first occurrence of the offending identifier.  Good enough for
   "where do I look", with no AST surgery. *)

module R = Storage.Record
open Ast

(* Stmt = ordinary statement; Qq = the body of an RQL loop, where
   current_snapshot() is legal and non-SELECT statements are not. *)
type mode = Stmt | Qq

(* --- value-type lattice ----------------------------------------------- *)

(* Tany is "statically unknown" (parameters, UDF results, untyped
   columns); Tnull is the type of the NULL literal. *)
type ty = Tint | Treal | Ttext | Tnull | Tany

let ty_name = function
  | Tint -> "integer"
  | Treal -> "real"
  | Ttext -> "text"
  | Tnull -> "null"
  | Tany -> "unknown"

let is_definite_num = function Tint | Treal -> true | _ -> false

let join a b =
  match a, b with
  | Tnull, t | t, Tnull -> t
  | a, b when a = b -> a
  | (Tint | Treal), (Tint | Treal) -> Treal
  | _ -> Tany

(* SQLite-style affinity from a declared column type, a heuristic for
   W103/W105 (DEC and NUM count as real); "" (RQL result tables, CTAS)
   means untyped. *)
let affinity decl =
  let has = Expr.contains_sub (String.uppercase_ascii decl) in
  if has "INT" then Tint
  else if has "CHAR" || has "TEXT" || has "CLOB" then Ttext
  else if has "REAL" || has "FLOA" || has "DOUB" || has "DEC" || has "NUM" then Treal
  else Tany

let ty_of_value = function
  | R.Null -> Tnull
  | R.Int _ -> Tint
  | R.Real _ -> Treal
  | R.Text _ -> Ttext

(* --- builtin signatures ------------------------------------------------ *)

(* Result types; the argument ranges are Func's ([Func.arity]). *)
let builtin_sigs =
  [ ("abs", Tany);
    ("length", Tint);
    ("lower", Ttext);
    ("upper", Ttext);
    ("substr", Ttext);
    ("coalesce", Tany);
    ("ifnull", Tany);
    ("nullif", Tany);
    ("typeof", Ttext);
    ("round", Treal);
    ("min", Tany);
    ("max", Tany);
    ("instr", Tint);
    ("trim", Ttext);
    ("replace", Ttext) ]

(* --- analysis state ---------------------------------------------------- *)

type t = {
  cat : Catalog.t;
  has_fn : string -> bool;          (* UDFs + builtins on the handle *)
  mode : mode;
  span_of : string -> Lexer.pos option;
  mutable diags : Diag.t list;
}

let lc = String.lowercase_ascii

let emit ctx d = ctx.diags <- d :: ctx.diags

(* [at] names the identifier whose source position the diagnostic
   should point at. *)
let errf ctx ?at code fmt =
  Printf.ksprintf
    (fun m ->
      emit ctx (Diag.v ?pos:(Option.bind at ctx.span_of) ~severity:Diag.Error code m))
    fmt

let warnf ctx ?at code fmt =
  Printf.ksprintf
    (fun m ->
      emit ctx (Diag.v ?pos:(Option.bind at ctx.span_of) ~severity:Diag.Warning code m))
    fmt

(* Identifier -> first source position, from re-tokenizing the
   statement text.  Tokenization already succeeded once to parse the
   statement, so the Lexer.Error guard is belt-and-braces for callers
   analyzing an AST under unrelated text. *)
let span_map sql =
  match sql with
  | None -> fun _ -> None
  | Some sql ->
    let tbl = Hashtbl.create 16 in
    (try
       List.iter
         (fun (tok, pos) ->
           match tok with
           | Lexer.Ident n ->
             let key = lc n in
             if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key pos
           | _ -> ())
         (Lexer.tokenize_pos sql)
     with Lexer.Error _ -> ());
    fun name -> Hashtbl.find_opt tbl (lc name)

(* --- name resolution --------------------------------------------------- *)

(* scope of one SELECT core: its sources, whether they all resolved
   (unresolved FROM suppresses column-level diagnostics to avoid
   cascades), and whether name diagnostics apply at all (they do not
   under AS OF: a snapshot's catalog may differ from the current one,
   and tables dropped since are still legally queryable there). *)
type scope = { sources : Plan.source list; resolved : bool; strict : bool }

let no_sources = { sources = []; resolved = true; strict = true }

let lookup_table ctx name =
  match Planner.lookup_table ctx.cat name with
  | t -> Some t
  | exception Planner.Error _ -> None

let has_col tbl c =
  match Planner.col_pos tbl c with
  | _ -> true
  | exception Planner.Error _ -> false

let col_ty (t : Catalog.table) i = affinity (snd t.Catalog.tcols.(i))

(* --- expression scanners ----------------------------------------------- *)

let contains_subquery e =
  let exception Found in
  try
    ignore
      (Expr.map
         (function
           | Subquery _ | In_select _ | Exists _ | In_set _ -> raise_notrace Found
           | e -> e)
         e);
    false
  with Found -> true

(* Same value for every row: no column references, aggregates,
   parameters or subqueries anywhere. *)
let row_independent e =
  let exception No in
  try
    ignore
      (Expr.map
         (function
           | ( Col _ | Colidx _ | Agg _ | Aggref _ | Param _ | Subquery _ | In_select _
             | Exists _ | In_set _ ) ->
             raise_notrace No
           | e -> e)
         e);
    true
  with No -> false

(* First column name mentioned in [e], as a position anchor for
   diagnostics about whole predicates. *)
let first_col_name e =
  let found = ref None in
  ignore
    (Expr.map
       (function
         | Col (_, n) as c ->
           if !found = None then found := Some n;
           c
         | e -> e)
       e);
  !found

(* Constant folding for W102 uses only the builtins: UDF calls are not
   row-independent in any useful static sense. *)
let builtin_ctx = { Expr.lookup_fn = Func.find }

(* --- expression checking ----------------------------------------------- *)

(* Infer the type of [e] under [sc], emitting diagnostics along the
   way.  [agg_ok] is whether an aggregate call is legal in this
   position (output items, HAVING, ORDER BY keys — not WHERE, GROUP BY
   or DML expressions). *)
let rec check_expr ctx (sc : scope) ~agg_ok (e : expr) : ty =
  match e with
  | Lit v -> ty_of_value v
  | Param _ | Aggref _ | In_set _ -> Tany
  | Colidx i -> (
    (* a column of a star-expanded output item *)
    match
      List.find_opt
        (fun (s : Plan.source) ->
          i >= s.s_offset && i < s.s_offset + Array.length s.s_tbl.Catalog.tcols)
        sc.sources
    with
    | Some s -> col_ty s.s_tbl (i - s.s_offset)
    | None -> Tany)
  | Col (q, n) -> (
    match Planner.match_col sc.sources q n with
    | `One (s, i) -> col_ty s.s_tbl i
    | `None ->
      if sc.strict && sc.resolved then
        errf ctx ~at:n "E002" "no such column: %s%s"
          (match q with Some q -> q ^ "." | None -> "")
          n;
      Tany
    | `Many ->
      if sc.strict && sc.resolved then errf ctx ~at:n "E003" "ambiguous column name: %s" n;
      Tany)
  | Unop (Neg, e1) -> (
    match check_expr ctx sc ~agg_ok e1 with
    | (Tint | Treal | Tnull) as t -> t
    | _ -> Tany)
  | Unop (Not, e1) ->
    ignore (check_expr ctx sc ~agg_ok e1);
    Tint
  | Binop (op, a, b) -> (
    let ta = check_expr ctx sc ~agg_ok a in
    let tb = check_expr ctx sc ~agg_ok b in
    match op with
    | Add | Sub | Mul | Div | Mod -> (
      match ta, tb with
      | Tint, Tint -> Tint
      | Tnull, _ | _, Tnull -> Tnull
      | (Tint | Treal), (Tint | Treal) -> Treal
      | _ -> Tany)
    | Concat -> Ttext
    | Eq | Ne | Lt | Le | Gt | Ge ->
      if
        sc.strict
        && ((is_definite_num ta && tb = Ttext) || (ta = Ttext && is_definite_num tb))
      then
        warnf ctx ?at:(first_col_name e) "W103"
          "comparison between %s and %s operands: values of different affinity compare \
           by type rank and never match"
          (ty_name ta) (ty_name tb);
      Tint
    | And | Or -> Tint)
  | Like { subject; pattern; _ } ->
    ignore (check_expr ctx sc ~agg_ok subject);
    ignore (check_expr ctx sc ~agg_ok pattern);
    Tint
  | In_list { subject; candidates; _ } ->
    ignore (check_expr ctx sc ~agg_ok subject);
    List.iter (fun c -> ignore (check_expr ctx sc ~agg_ok c)) candidates;
    Tint
  | Between { subject; low; high; _ } ->
    ignore (check_expr ctx sc ~agg_ok subject);
    ignore (check_expr ctx sc ~agg_ok low);
    ignore (check_expr ctx sc ~agg_ok high);
    Tint
  | Is_null { subject; _ } ->
    ignore (check_expr ctx sc ~agg_ok subject);
    Tint
  | Call (name, args) when lc name = "current_snapshot" ->
    List.iter (fun a -> ignore (check_expr ctx sc ~agg_ok a)) args;
    if args <> [] then errf ctx ~at:name "E005" "current_snapshot expects 0 arguments";
    if ctx.mode <> Qq then
      errf ctx ~at:name "E020"
        "current_snapshot() is only valid inside an RQL Qq query";
    Tint
  | Call (name, args) -> (
    let n = List.length args in
    List.iter (fun a -> ignore (check_expr ctx sc ~agg_ok a)) args;
    match Func.arity name with
    | Some ((lo, hi) as range) ->
      if n < lo || n > hi then errf ctx ~at:name "E005" "%s" (Func.arity_message name range n);
      Option.value ~default:Tany (List.assoc_opt (lc name) builtin_sigs)
    | None ->
      if not (ctx.has_fn name) then errf ctx ~at:name "E004" "no such function: %s" name;
      Tany)
  | Agg a -> (
    let name = agg_fn_name a.agg_fn in
    if not agg_ok then
      errf ctx ~at:name "E007" "aggregate %s(...) is not allowed in this clause" name;
    match a.agg_arg with
    | None -> Tint (* COUNT star *)
    | Some arg -> (
      if Expr.has_aggregate arg then errf ctx ~at:name "E006" "aggregate calls cannot nest";
      (* agg_ok:true so a nested aggregate reports E006 once, not an
         extra E007 *)
      let t = check_expr ctx sc ~agg_ok:true arg in
      match a.agg_fn with
      | Count -> Tint
      | Avg | Total -> Treal
      | Sum -> ( match t with Tint -> Tint | Treal -> Treal | _ -> Tany)
      | Min | Max -> t))
  | Case { branches; else_ } ->
    let t =
      List.fold_left
        (fun acc (cond, v) ->
          ignore (check_expr ctx sc ~agg_ok cond);
          join acc (check_expr ctx sc ~agg_ok v))
        Tnull branches
    in
    (match else_ with
    | Some e1 -> join t (check_expr ctx sc ~agg_ok e1)
    | None -> t)
  | Cast (e1, tyname) -> (
    ignore (check_expr ctx sc ~agg_ok e1);
    (* a cast that leaves the value unchanged is unknown, as it is to
       the optimizer (Absint.cast_ty) *)
    match Expr.cast_class tyname with
    | Expr.To_int -> Tint
    | Expr.To_real -> Treal
    | Expr.To_text -> Ttext
    | Expr.Unchanged -> Tany)
  | Subquery sub -> (
    match check_select ctx ~outer_strict:sc.strict sub with
    | Some [ (_, t) ] -> t
    | Some outs ->
      errf ctx "E008" "scalar subquery must return a single column (got %d)"
        (List.length outs);
      Tany
    | None -> Tany)
  | In_select { subject; sub; _ } ->
    ignore (check_expr ctx sc ~agg_ok subject);
    (match check_select ctx ~outer_strict:sc.strict sub with
    | Some outs when List.length outs <> 1 ->
      errf ctx "E008" "IN (SELECT ...) must return a single column (got %d)"
        (List.length outs)
    | _ -> ());
    Tint
  | Exists { sub; _ } ->
    ignore (check_select ctx ~outer_strict:sc.strict sub);
    Tint

(* --- predicate warnings ------------------------------------------------ *)

(* Is [n] (optionally qualified by [q]) the leading column of a native
   index on one of the scoped tables?  Then an equality/range conjunct
   on it is the planner's index-bound candidate. *)
and col_is_indexed ctx sc q n =
  let ln = lc n in
  let srcs =
    match q with
    | Some q -> List.filter (fun (s : Plan.source) -> s.s_alias = lc q) sc.sources
    | None -> sc.sources
  in
  List.exists
    (fun (s : Plan.source) ->
      has_col s.s_tbl n
      && List.exists
           (fun (ix : Catalog.index) ->
             match ix.Catalog.icols with
             | lead :: _ -> lc lead = ln
             | [] -> false)
           (Catalog.indexes_of_table ctx.cat s.s_tbl.Catalog.tname))
    srcs

(* WHERE-conjunct warnings: W102 (constant false/NULL) and W101 (the
   PR-3 sargability hazard: a subquery-derived comparison value is a
   filter, not an index bound, so the index on that column goes
   unused). *)
and check_predicate_warnings ctx sc w =
  List.iter
    (fun conj ->
      (if row_independent conj then
         match
           try Some (Expr.eval_const builtin_ctx conj) with Expr.Error _ -> None
         with
         | Some v -> (
           match Expr.truth v with
           | Some true -> ()
           | Some false ->
             warnf ctx ?at:(first_col_name conj) "W102"
               "predicate is constant and always false"
           | None ->
             warnf ctx ?at:(first_col_name conj) "W102"
               "predicate is constant NULL (never true)")
         | None -> ());
      match conj with
      | Binop ((Eq | Lt | Le | Gt | Ge), a, b) -> (
        let probe col_e other =
          match col_e with
          | Col (q, n) when contains_subquery other && col_is_indexed ctx sc q n ->
            warnf ctx ~at:n "W101"
              "the index on %s cannot serve this comparison: a subquery-derived value \
               is a filter, not an index bound (materialize it into a literal or \
               parameter first)"
              n
          | _ -> ()
        in
        probe a b;
        probe b a)
      | _ -> ())
    (Expr.conjuncts w)

(* --- SELECT checking --------------------------------------------------- *)

(* Returns the output shape (name, type) when statically known; None
   when a FROM table did not resolve (then width-dependent checks are
   skipped).  [outer_strict] is false inside AS OF scopes. *)
and check_select ctx ~outer_strict (sel : select) : (string * ty) list option =
  if sel.union_with = [] then check_core ctx ~outer_strict sel
  else begin
    (* compound: the first member owns DISTINCT/GROUP BY; trailing
       ORDER BY / LIMIT belong to the whole compound and must
       reference output columns (same rule as the planner). *)
    let base = { sel with union_with = []; order_by = []; limit = None; offset = None } in
    let outs = check_core ctx ~outer_strict base in
    let member_outs =
      List.map (fun (_all, m) -> check_select ctx ~outer_strict m) sel.union_with
    in
    (match outs with
    | Some o ->
      List.iter
        (function
          | Some m when List.length m <> List.length o ->
            errf ctx "E012" "UNION members must return the same number of columns (%d vs %d)"
              (List.length o) (List.length m)
          | _ -> ())
        member_outs;
      let header = Planner.header (List.map fst o) in
      List.iter
        (fun oi ->
          match Planner.compound_order_index header oi with
          | _ -> ()
          | exception Planner.Error m ->
            let at = match oi.ord_expr with Col (_, n) -> Some n | _ -> None in
            errf ctx ?at "E002" "%s" m)
        sel.order_by
    | None -> ());
    check_limit_offset ctx sel;
    outs
  end

and check_limit_offset ctx (sel : select) =
  let chk what eo =
    Option.iter
      (fun e ->
        match check_expr ctx { no_sources with strict = false } ~agg_ok:false e with
        | Tint | Tany -> ()
        | t -> errf ctx "E011" "%s must be an integer (got %s)" what (ty_name t))
      eo
  in
  chk "LIMIT" sel.limit;
  chk "OFFSET" sel.offset

and check_core ctx ~outer_strict (sel : select) : (string * ty) list option =
  let strict = outer_strict && sel.as_of = None in
  (* AS OF binds before the FROM environment exists; it must be a
     constant (or parameter) integer snapshot id. *)
  (match sel.as_of with
  | Some e -> (
    match check_expr ctx { no_sources with strict = false } ~agg_ok:false e with
    | Tint | Tany -> ()
    | t -> errf ctx "E010" "AS OF must be an integer snapshot id (got %s)" (ty_name t))
  | None -> ());
  let joins = match sel.from with Some (_, js) -> js | None -> [] in
  let refs =
    match sel.from with
    | None -> []
    | Some (first, js) -> first :: List.map (fun j -> j.join_table) js
  in
  let width_known = ref true in
  let sources =
    List.fold_left
      (fun sources (tr : table_ref) ->
        match lookup_table ctx tr.tbl_name with
        | Some t -> sources @ [ Planner.source sources tr t ]
        | None ->
          width_known := false;
          if strict then errf ctx ~at:tr.tbl_name "E001" "no such table: %s" tr.tbl_name;
          sources)
      [] refs
  in
  let sc = { sources; resolved = !width_known; strict } in
  (* ON clauses: checked against the full source list — necessary but
     not sufficient (the planner resolves them against sources
     accumulated so far), so the analyzer stays permissive. *)
  List.iter
    (fun j -> Option.iter (fun e -> ignore (check_expr ctx sc ~agg_ok:false e)) j.join_on)
    joins;
  (match sel.where with
  | Some w ->
    ignore (check_expr ctx sc ~agg_ok:false w);
    if sc.strict && sc.resolved then check_predicate_warnings ctx sc w
  | None -> ());
  (* output items, star-expanded so the width is static, with their
     types *)
  let typed =
    List.concat_map
      (fun item ->
        match Planner.expand_items sc.sources [ item ] with
        | items -> List.map (fun (e, name) -> ((e, name), check_expr ctx sc ~agg_ok:true e)) items
        | exception Planner.Error _ ->
          let a = match item with Table_star a -> a | _ -> "" in
          width_known := false;
          if sc.strict && sc.resolved then errf ctx ~at:a "E001" "no such table: %s" a;
          [])
      sel.items
  in
  let items = List.map fst typed in
  let outs = List.map (fun ((_, name), t) -> (name, t)) typed in
  let alias_subst = Planner.alias_subst sc.sources items in
  List.iter (fun e -> ignore (check_expr ctx sc ~agg_ok:false (alias_subst e))) sel.group_by;
  Option.iter
    (fun e -> ignore (check_expr ctx sc ~agg_ok:true (alias_subst e)))
    sel.having;
  let header = Planner.header (List.map snd items) in
  List.iter
    (fun o ->
      match Planner.order_target sc.sources header o with
      | `Out _ -> ()
      | `Key e -> ignore (check_expr ctx sc ~agg_ok:true e))
    sel.order_by;
  check_limit_offset ctx sel;
  if !width_known then Some outs else None

(* --- statement checking ------------------------------------------------ *)

let dml_scope (tbl : Catalog.table) =
  { sources = [ Planner.source_of_table tbl ]; resolved = true; strict = true }

let check_values_exprs ctx exprs =
  (* INSERT ... VALUES expressions evaluate with no row in scope;
     subqueries inside them are fine, bare columns are not. *)
  List.iter (fun e -> ignore (check_expr ctx no_sources ~agg_ok:false e)) exprs

let rec check_stmt ctx (s : stmt) : unit =
  match s with
  | Select sel | Explain sel | Explain_profile sel | Explain_analyze sel ->
    ignore (check_select ctx ~outer_strict:true sel)
  | Explain_lint inner -> check_stmt ctx inner
  | Insert { table; columns; values; from_select } -> (
    match lookup_table ctx table with
    | None -> errf ctx ~at:table "E001" "no such table: %s" table
    | Some tbl ->
      if Systables.is_virtual_name table then
        errf ctx ~at:table "E013" "%s is a read-only system table" table
      else begin
        let width =
          match columns with
          | None -> Array.length tbl.Catalog.tcols
          | Some cols ->
            List.iter
              (fun c ->
                if not (has_col tbl c) then
                  errf ctx ~at:c "E002" "table %s has no column %s" table c)
              cols;
            List.length cols
        in
        List.iter
          (fun row ->
            check_values_exprs ctx row;
            if List.length row <> width then
              errf ctx "E009" "INSERT expects %d values, got %d" width (List.length row))
          values;
        match from_select with
        | Some sel -> (
          match check_select ctx ~outer_strict:true sel with
          | Some outs when List.length outs <> width ->
            errf ctx "E009" "INSERT expects %d columns, got %d from SELECT" width
              (List.length outs)
          | _ -> ())
        | None -> ()
      end)
  | Delete { table; where } -> (
    match lookup_table ctx table with
    | None -> errf ctx ~at:table "E001" "no such table: %s" table
    | Some tbl ->
      if Systables.is_virtual_name table then
        errf ctx ~at:table "E013" "%s is a read-only system table" table
      else
        Option.iter
          (fun w ->
            let sc = dml_scope tbl in
            ignore (check_expr ctx sc ~agg_ok:false w);
            check_predicate_warnings ctx sc w)
          where)
  | Update { table; sets; where } -> (
    match lookup_table ctx table with
    | None -> errf ctx ~at:table "E001" "no such table: %s" table
    | Some tbl ->
      if Systables.is_virtual_name table then
        errf ctx ~at:table "E013" "%s is a read-only system table" table
      else begin
        let sc = dml_scope tbl in
        List.iter
          (fun (c, e) ->
            if not (has_col tbl c) then
              errf ctx ~at:c "E002" "table %s has no column %s" table c;
            ignore (check_expr ctx sc ~agg_ok:false e))
          sets;
        Option.iter
          (fun w ->
            ignore (check_expr ctx sc ~agg_ok:false w);
            check_predicate_warnings ctx sc w)
          where
      end)
  | Create_table { table; cols; as_select; if_not_exists = _ } ->
    if Systables.is_reserved_name table then
      errf ctx ~at:table "E013" "%s: the sys_ prefix is reserved for system tables" table;
    let seen = Hashtbl.create 8 in
    List.iter
      (fun c ->
        let k = lc c.col_name in
        if k <> "" then begin
          if Hashtbl.mem seen k then
            warnf ctx "W104"
              "duplicate column name %s in CREATE TABLE %s (it will be renamed)"
              c.col_name table;
          Hashtbl.replace seen k ()
        end)
      cols;
    Option.iter (fun sel -> ignore (check_select ctx ~outer_strict:true sel)) as_select
  | Create_index { index = _; table; columns; if_not_exists = _ } -> (
    match Catalog.find_table ctx.cat table with
    | None ->
      if Systables.is_virtual_name table then
        errf ctx ~at:table "E013" "%s is a read-only system table" table
      else errf ctx ~at:table "E001" "no such table: %s" table
    | Some tbl ->
      List.iter
        (fun c ->
          if not (has_col tbl c) then
            errf ctx ~at:c "E002" "table %s has no column %s" table c)
        columns)
  | Drop_table { table; if_exists } ->
    if (not if_exists) && Catalog.find_table ctx.cat table = None then
      errf ctx ~at:table "E001" "no such table: %s" table
  | Drop_index { index; if_exists } ->
    if (not if_exists) && Catalog.find_index ctx.cat index = None then
      errf ctx ~at:index "E001" "no such index: %s" index
  | Vacuum_snapshots { older_than; keeping_last; dry_run = _ } ->
    (* The retention operand is resolved before any page access, so it
       must be statically evaluable: a positive integer literal (or a
       parameter, checked at bind time). *)
    let check_retention what e =
      match e with
      | Lit (R.Int n) when n >= 1 -> ()
      | Param _ -> ()
      | _ ->
        errf ctx "E030" "VACUUM SNAPSHOTS %s must be a positive integer constant"
          what
    in
    Option.iter (check_retention "OLDER THAN") older_than;
    Option.iter (check_retention "KEEPING LAST") keeping_last
  | Begin_txn | Commit _ | Rollback | Analyze_archive | Checkpoint | Pragma _ -> ()

(* --- entry points ------------------------------------------------------ *)

let finish ctx =
  let ds = List.rev ctx.diags in
  let errs, warns = List.partition Diag.is_error ds in
  errs @ warns

(* Analyze one parsed statement.  [sql] (the statement text, when
   known) gives diagnostics source positions; [mode] Qq enables
   current_snapshot() and restricts the statement to SELECT. *)
let analyze ?sql ~cat ~has_fn ?(mode = Stmt) (s : stmt) : Diag.t list =
  let ctx = { cat; has_fn; mode; span_of = span_map sql; diags = [] } in
  (match mode, s with
  | Qq, Select sel ->
    if sel.as_of <> None then
      warnf ctx "W106"
        "Qq carries its own AS OF; the RQL loop overrides it with each snapshot id";
    ignore (check_select ctx ~outer_strict:true sel)
  | Qq, _ -> errf ctx "E022" "Qq must be a SELECT statement"
  | Stmt, _ -> check_stmt ctx s);
  finish ctx

(* Analyze an RQL Qs: an ordinary statement that must additionally be a
   SELECT projecting exactly one (integer-typed) snapshot-id column. *)
let analyze_qs ?sql ~cat ~has_fn (s : stmt) : Diag.t list =
  let ctx = { cat; has_fn; mode = Stmt; span_of = span_map sql; diags = [] } in
  (match s with
  | Select sel -> (
    match check_select ctx ~outer_strict:true sel with
    | Some [ (_, t) ] -> (
      match t with
      | Tint | Tany | Tnull -> ()
      | t ->
        warnf ctx "W105" "Qs snapshot-id column is %s-typed, not integer" (ty_name t))
    | Some outs ->
      errf ctx "E021" "Qs must project a single snapshot-id column (got %d)"
        (List.length outs)
    | None -> ())
  | _ -> errf ctx "E021" "Qs must be a SELECT statement over the snapshot set");
  finish ctx
