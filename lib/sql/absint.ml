(* Abstract interpretation over plan expression trees.

   The simplifier rewrites an expression into an equivalent one using a
   value lattice with two kinds of facts:

     - constancy: an expression proven to evaluate to exactly one value
       for every row and parameter binding is replaced by that literal.
       The proof is by construction: a node whose children are all
       literals is handed to [Expr.eval_const] — the real evaluator —
       so a folded result is byte-identical to the unoptimized one.
       Null-ness is the [Lit Null] point of this lattice, propagated
       through the evaluator's strict positions (arithmetic,
       comparisons, LIKE, BETWEEN, ||) without needing the other
       operand to be known.

     - dynamic-type sets ([tyset]): an over-approximation of the
       runtime types an expression can produce, derived only from
       guaranteed sources (literals, operator result types) — never
       from column declarations, which SQLite-style flexible typing
       makes unreliable.  Type sets gate the strength reductions
       (x+0, x*1, --x, NOT NOT x) that are only identities on some
       types: e.g. [x+0 -> x] is unsound for REAL because
       [-0.0 +. 0.0 = +0.0].

   Integer/real interval facts are deliberately *not* tracked here:
   they live at the conjunct level in [Opt], where the total order of
   [R.compare_value] makes bound reasoning sound for every runtime
   type at once.

   Soundness ground rules, mirroring [Expr.eval] exactly:
     - a subtree may only be dropped (its evaluation skipped) when it
       is [droppable]: total and pure.  Function calls, subqueries and
       parameters are never droppable — a call may raise or have
       effects, and binding-arity errors must keep firing;
     - [Call] nodes fold only for known builtins not shadowed by a
       session UDF ([pure_fn]); everything else is left for runtime so
       its errors and effects are preserved;
     - AND/OR use the evaluator's own short-circuit order, so the left
       operand of a false-AND never needs a droppability check, while
       the right operand folding away the left does. *)

module R = Storage.Record
open Ast

(* --- dynamic type sets ------------------------------------------------ *)

type tyset = {
  can_int : bool;
  can_real : bool;
  can_text : bool;
  can_null : bool;
  boolish : bool; (* every possible value is Int 0, Int 1 or Null *)
}

let ty_top = { can_int = true; can_real = true; can_text = true; can_null = true; boolish = false }

let ty_of_value = function
  | R.Int i ->
    { can_int = true; can_real = false; can_text = false; can_null = false;
      boolish = i = 0 || i = 1 }
  | R.Real _ ->
    { can_int = false; can_real = true; can_text = false; can_null = false; boolish = false }
  | R.Text _ ->
    { can_int = false; can_real = false; can_text = true; can_null = false; boolish = false }
  | R.Null ->
    { can_int = false; can_real = false; can_text = false; can_null = true; boolish = true }

let ty_join a b =
  { can_int = a.can_int || b.can_int;
    can_real = a.can_real || b.can_real;
    can_text = a.can_text || b.can_text;
    can_null = a.can_null || b.can_null;
    boolish = a.boolish && b.boolish }

(* of_truth: Int 0 / Int 1 / Null *)
let ty_truth =
  { can_int = true; can_real = false; can_text = false; can_null = true; boolish = true }

(* of_bool: Int 0 / Int 1, never Null (IS NULL) *)
let ty_bool01 =
  { can_int = true; can_real = false; can_text = false; can_null = false; boolish = true }

(* numeric2 / Neg results *)
let ty_num =
  { can_int = true; can_real = true; can_text = false; can_null = true; boolish = false }

let ty_text_null =
  { can_int = false; can_real = false; can_text = true; can_null = true; boolish = false }

(* Result type of CAST, by [Expr.cast_class]; a cast that leaves the
   value unchanged is Top. *)
let cast_ty ty =
  match Expr.cast_class ty with
  | Expr.To_int ->
    { can_int = true; can_real = false; can_text = false; can_null = true; boolish = false }
  | Expr.To_real ->
    { can_int = false; can_real = true; can_text = false; can_null = true; boolish = false }
  | Expr.To_text -> ty_text_null
  | Expr.To_numeric -> ty_num
  | Expr.Unchanged -> ty_top

(* Over-approximate the runtime types of [e].  Pure and cheap: used by
   the strength reductions to check identities like [x * 1 -> x]. *)
let rec ty_of = function
  | Lit v -> ty_of_value v
  | Unop (Neg, _) -> ty_num
  | Unop (Not, _) -> ty_truth
  | Binop ((Add | Sub | Mul | Div | Mod), _, _) -> ty_num
  | Binop (Concat, _, _) -> ty_text_null
  | Binop ((Eq | Ne | Lt | Le | Gt | Ge | And | Or), _, _) -> ty_truth
  | Like _ | Between _ | In_list _ | In_set _ -> ty_truth
  | Is_null _ -> ty_bool01
  | Cast (_, ty) -> cast_ty ty
  | Case { branches; else_ } ->
    let else_ty = match else_ with Some e -> ty_of e | None -> ty_of_value R.Null in
    List.fold_left (fun acc (_, v) -> ty_join acc (ty_of v)) else_ty branches
  | Col _ | Colidx _ | Aggref _ | Param _ | Agg _ | Call _ | Subquery _
  | In_select _ | Exists _ ->
    ty_top

(* x+0 is only an identity for INTEGER/NULL (REAL breaks on -0.0) *)
let int_or_null ty = (not ty.can_real) && not ty.can_text

(* x*1, x/1, x-0, --x are identities for any numeric-or-null value *)
let numeric_or_null ty = not ty.can_text

(* --- droppability ------------------------------------------------------ *)

(* Can evaluation of [e] be skipped without observable difference?
   Only expressions that cannot raise and have no side effects qualify:
   no function calls (a UDF may be impure; even a builtin may reject
   its arguments at runtime), no subqueries, no unresolved columns, and
   no parameters (dropping one would silence binding-arity errors). *)
let rec droppable = function
  | Lit _ | Colidx _ | Aggref _ -> true
  | Col _ | Param _ | Call _ | Agg _ | Subquery _ | In_select _ | Exists _ -> false
  | Unop (_, e) -> droppable e
  | Binop (_, a, b) -> droppable a && droppable b
  | Like { subject; pattern; _ } -> droppable subject && droppable pattern
  | In_list { subject; candidates; _ } ->
    droppable subject && List.for_all droppable candidates
  | Between { subject; low; high; _ } -> droppable subject && droppable low && droppable high
  | Is_null { subject; _ } -> droppable subject
  | Case { branches; else_ } ->
    List.for_all (fun (c, v) -> droppable c && droppable v) branches
    && (match else_ with Some e -> droppable e | None -> true)
  | Cast (e, _) -> droppable e
  | In_set { subject; _ } -> droppable subject

(* --- the simplifier ---------------------------------------------------- *)

type ctx = {
  fnctx : Expr.fn_ctx;
  (* foldable at plan time: a known builtin not shadowed by a UDF *)
  pure_fn : string -> bool;
  mutable folds : int; (* rewrites performed (folds + strength reductions) *)
}

let make_ctx ~fnctx ~pure_fn = { fnctx; pure_fn; folds = 0 }

let is_lit = function Lit _ -> true | _ -> false

(* Evaluate a node whose children are all literals with the real
   evaluator; on success the fold is exact by construction.  Failure
   (e.g. a builtin rejecting its arguments) leaves the node in place so
   the runtime error surfaces exactly as on the unoptimized path. *)
let fold ctx e =
  match Expr.eval_const ctx.fnctx e with
  | v ->
    ctx.folds <- ctx.folds + 1;
    Lit v
  | exception Sql_error.Error _ -> e

let reduced ctx e =
  ctx.folds <- ctx.folds + 1;
  e

let lit_null ctx = reduced ctx (Lit R.Null)

let rec go ctx e =
  match e with
  | Lit _ | Col _ | Colidx _ | Aggref _ | Param _ | Agg _ | Subquery _ | In_select _
  | Exists _ | In_set _ ->
    e
  | Unop (op, a) -> simp_unop ctx op (go ctx a)
  | Binop (op, a, b) -> simp_binop ctx op (go ctx a) (go ctx b)
  | Like l -> (
    let subject = go ctx l.subject and pattern = go ctx l.pattern in
    let e' = Like { l with subject; pattern } in
    match subject, pattern with
    | Lit _, Lit _ -> fold ctx e'
    | Lit R.Null, p when droppable p -> lit_null ctx
    | s, Lit R.Null when droppable s -> lit_null ctx
    | _ -> e')
  | In_list l -> (
    let subject = go ctx l.subject in
    let candidates = List.map (go ctx) l.candidates in
    let e' = In_list { l with subject; candidates } in
    match subject with
    (* the evaluator returns NULL before touching the candidates *)
    | Lit R.Null -> lit_null ctx
    | Lit _ when List.for_all is_lit candidates -> fold ctx e'
    | _ -> e')
  | Between b -> (
    let subject = go ctx b.subject and low = go ctx b.low and high = go ctx b.high in
    let e' = Between { b with subject; low; high } in
    match subject with
    | Lit _ when is_lit low && is_lit high -> fold ctx e'
    (* NULL subject makes both bound comparisons NULL, hence NULL *)
    | Lit R.Null when droppable low && droppable high -> lit_null ctx
    | _ -> e')
  | Is_null i ->
    let subject = go ctx i.subject in
    let e' = Is_null { i with subject } in
    if is_lit subject then fold ctx e' else e'
  | Case { branches; else_ } -> simp_case ctx branches else_
  | Call (name, args) ->
    let args = List.map (go ctx) args in
    let e' = Call (name, args) in
    if ctx.pure_fn name && List.for_all is_lit args then fold ctx e' else e'
  | Cast (inner, ty) ->
    let inner = go ctx inner in
    let e' = Cast (inner, ty) in
    if is_lit inner then fold ctx e' else e'

and simp_unop ctx op a =
  let e' = Unop (op, a) in
  match op, a with
  | _, Lit _ -> fold ctx e'
  | Neg, Unop (Neg, x) when numeric_or_null (ty_of x) -> reduced ctx x
  | Not, Unop (Not, x) when (ty_of x).boolish -> reduced ctx x
  | _ -> e'

and simp_binop ctx op a b =
  let e' = Binop (op, a, b) in
  match op with
  | And -> (
    match a, b with
    | Lit _, Lit _ -> fold ctx e'
    (* the evaluator short-circuits a false left operand *)
    | Lit v, _ when Expr.truth v = Some false -> reduced ctx (Lit (Expr.of_bool false))
    | _, Lit v when Expr.truth v = Some false && droppable a ->
      reduced ctx (Lit (Expr.of_bool false))
    (* TRUE AND x = of_truth (truth x), the identity on boolish x *)
    | Lit v, _ when Expr.truth v = Some true && (ty_of b).boolish -> reduced ctx b
    | _, Lit v when Expr.truth v = Some true && (ty_of a).boolish -> reduced ctx a
    | _ -> e')
  | Or -> (
    match a, b with
    | Lit _, Lit _ -> fold ctx e'
    | Lit v, _ when Expr.truth v = Some true -> reduced ctx (Lit (Expr.of_bool true))
    | _, Lit v when Expr.truth v = Some true && droppable a ->
      reduced ctx (Lit (Expr.of_bool true))
    | Lit v, _ when Expr.truth v = Some false && (ty_of b).boolish -> reduced ctx b
    | _, Lit v when Expr.truth v = Some false && (ty_of a).boolish -> reduced ctx a
    | _ -> e')
  | Concat -> (
    match a, b with
    | Lit _, Lit _ -> fold ctx e'
    | Lit R.Null, x when droppable x -> lit_null ctx
    | x, Lit R.Null when droppable x -> lit_null ctx
    | _ -> e')
  | Add | Sub | Mul | Div | Mod -> (
    match a, b with
    | Lit _, Lit _ -> fold ctx e'
    (* a non-numeric operand (NULL, or text with no numeric value)
       forces the whole arithmetic node to NULL *)
    | Lit v, x when Expr.to_number v = None && droppable x -> lit_null ctx
    | x, Lit v when Expr.to_number v = None && droppable x -> lit_null ctx
    (* division / modulus by a constant zero is NULL, never an error *)
    | x, Lit v when (op = Div || op = Mod) && Expr.to_number v = Some 0. && droppable x ->
      lit_null ctx
    (* strength reduction; type-gated, see [int_or_null] *)
    | x, Lit (R.Int 0) when op = Add && int_or_null (ty_of x) -> reduced ctx x
    | Lit (R.Int 0), x when op = Add && int_or_null (ty_of x) -> reduced ctx x
    | x, Lit (R.Int 0) when op = Sub && numeric_or_null (ty_of x) -> reduced ctx x
    | x, Lit (R.Int 1) when (op = Mul || op = Div) && numeric_or_null (ty_of x) ->
      reduced ctx x
    | Lit (R.Int 1), x when op = Mul && numeric_or_null (ty_of x) -> reduced ctx x
    | _ -> e')
  | Eq | Ne | Lt | Le | Gt | Ge -> (
    match a, b with
    | Lit _, Lit _ -> fold ctx e'
    | Lit R.Null, x when droppable x -> lit_null ctx
    | x, Lit R.Null when droppable x -> lit_null ctx
    | _ -> e')

(* CASE: a branch whose condition is a literal non-true can never be
   taken; a literal true condition turns its value into the
   unconditional tail (the evaluator stops there, so the rest is dead).
   A CASE left with no branches is its ELSE (or NULL). *)
and simp_case ctx branches else_ =
  let rec walk = function
    | [] -> ([], Option.map (go ctx) else_)
    | (c, v) :: rest -> (
      match go ctx c with
      | Lit cv when Expr.truth cv <> Some true ->
        ctx.folds <- ctx.folds + 1;
        walk rest
      | Lit _ ->
        ctx.folds <- ctx.folds + 1;
        ([], Some (go ctx v))
      | c ->
        let v = go ctx v in
        let bs, el = walk rest in
        ((c, v) :: bs, el))
  in
  match walk branches with
  | [], Some e -> e
  | [], None -> Lit R.Null
  | bs, el -> Case { branches = bs; else_ = el }

(* Simplify [e] into an equivalent expression; rewrites are counted in
   [ctx.folds]. *)
let simplify ctx e = go ctx e
