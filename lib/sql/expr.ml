(* Expression evaluation with SQLite-style dynamic typing and SQL
   three-valued logic.  Column references must have been resolved to
   positional [Colidx] nodes and aggregate calls to [Aggref] slots by the
   executor before evaluation. *)

module R = Storage.Record
open Ast

let error = Sql_error.error

type fn_ctx = { lookup_fn : string -> (R.value array -> R.value) option }

(* SQL truth: NULL is unknown. *)
let truth (v : R.value) : bool option =
  match v with
  | R.Null -> None
  | R.Int 0 -> Some false
  | R.Int _ -> Some true
  | R.Real f -> Some (f <> 0.)
  | R.Text s -> (
    (* SQLite coerces text through numeric affinity *)
    match float_of_string_opt (String.trim s) with
    | Some f -> Some (f <> 0.)
    | None -> Some false)

let of_bool b = if b then R.Int 1 else R.Int 0 (* static constants: no allocation *)
let of_truth = function None -> R.Null | Some b -> of_bool b

let to_number (v : R.value) : float option =
  match v with
  | R.Null -> None
  | R.Int i -> Some (float_of_int i)
  | R.Real f -> Some f
  | R.Text s -> float_of_string_opt (String.trim s)

let numeric2 op_int op_float a b =
  match a, b with
  | R.Null, _ | _, R.Null -> R.Null
  | R.Int x, R.Int y -> op_int x y
  | _ -> (
    match to_number a, to_number b with
    | Some x, Some y -> op_float x y
    | _ -> R.Null)

let arith op a b =
  match op with
  | Add -> numeric2 (fun x y -> R.Int (x + y)) (fun x y -> R.Real (x +. y)) a b
  | Sub -> numeric2 (fun x y -> R.Int (x - y)) (fun x y -> R.Real (x -. y)) a b
  | Mul -> numeric2 (fun x y -> R.Int (x * y)) (fun x y -> R.Real (x *. y)) a b
  | Div ->
    numeric2
      (fun x y -> if y = 0 then R.Null else R.Int (x / y))
      (fun x y -> if y = 0. then R.Null else R.Real (x /. y))
      a b
  | Mod ->
    numeric2
      (fun x y -> if y = 0 then R.Null else R.Int (x mod y))
      (fun x y -> if y = 0. then R.Null else R.Real (Float.rem x y))
      a b
  | Concat | Eq | Ne | Lt | Le | Gt | Ge | And | Or -> error "arith: not an arithmetic operator"

let comparison op a b =
  match a, b with
  | R.Null, _ | _, R.Null -> R.Null
  | _ ->
    let c = R.compare_value a b in
    of_bool
      (match op with
      | Eq -> c = 0
      | Ne -> c <> 0
      | Lt -> c < 0
      | Le -> c <= 0
      | Gt -> c > 0
      | Ge -> c >= 0
      | Add | Sub | Mul | Div | Mod | Concat | And | Or -> error "comparison: bad operator")

(* SQL LIKE with % and _ wildcards; ASCII case-insensitive, as SQLite's
   default. *)
let like_match ~pattern ~subject =
  let p = String.lowercase_ascii pattern and s = String.lowercase_ascii subject in
  let np = String.length p and ns = String.length s in
  (* memoized recursive match *)
  let memo = Hashtbl.create 64 in
  let rec go pi si =
    match Hashtbl.find_opt memo (pi, si) with
    | Some r -> r
    | None ->
      let r =
        if pi = np then si = ns
        else
          match p.[pi] with
          | '%' -> go (pi + 1) si || (si < ns && go pi (si + 1))
          | '_' -> si < ns && go (pi + 1) (si + 1)
          | c -> si < ns && s.[si] = c && go (pi + 1) (si + 1)
      in
      Hashtbl.add memo (pi, si) r;
      r
  in
  go 0 0

(* Longest numeric prefix of a string, as SQLite's text-to-number casts
   use ("12abc" -> 12.). *)
let numeric_prefix s =
  let s = String.trim s in
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  let i = ref 0 in
  if !i < n && (s.[!i] = '-' || s.[!i] = '+') then incr i;
  while !i < n && is_digit s.[!i] do incr i done;
  if !i < n && s.[!i] = '.' then begin
    incr i;
    while !i < n && is_digit s.[!i] do incr i done
  end;
  if !i < n && (s.[!i] = 'e' || s.[!i] = 'E') then begin
    let mark = !i in
    incr i;
    if !i < n && (s.[!i] = '-' || s.[!i] = '+') then incr i;
    let digits = ref 0 in
    while !i < n && is_digit s.[!i] do incr i; incr digits done;
    if !digits = 0 then i := mark
  end;
  float_of_string_opt (String.sub s 0 !i)

(* Whether [sub] occurs in [s]: type names are classed by substrings. *)
let contains_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

type cast_class = To_int | To_real | To_text | To_numeric | Unchanged

(* What CAST(e AS [ty]) converts to, by SQLite's affinity rules in
   their order: INT, then CHAR/CLOB/TEXT, then BLOB (or no name), which
   leaves the value as it is, then REAL/FLOA/DOUB; any other name
   (NUMERIC, DECIMAL, ...) has NUMERIC affinity.  The optimizer's and
   the analyzer's typing of CAST read this. *)
let cast_class ty =
  let ty = String.uppercase_ascii (String.trim ty) in
  let has = contains_sub ty in
  if has "INT" then To_int
  else if has "CHAR" || has "TEXT" || has "CLOB" then To_text
  else if ty = "" || has "BLOB" then Unchanged
  else if has "REAL" || has "FLOA" || has "DOUB" then To_real
  else To_numeric

(* CAST: INTEGER truncates, REAL parses the numeric prefix, TEXT
   renders, NUMERIC parses the numeric prefix and gives an INTEGER when
   the number is integral and in range ('2' and 2.0 give 2, '2.5' gives
   2.5, 'abc' gives 0). *)
let cast_to ty v =
  let num v =
    match v with
    | R.Text s -> Option.value (numeric_prefix s) ~default:0.
    | v -> Option.value (to_number v) ~default:0.
  in
  if v = R.Null then R.Null
  else
    match cast_class ty with
    | To_int -> R.Int (int_of_float (num v))
    | To_real -> R.Real (num v)
    | To_text -> R.Text (R.value_to_string v)
    | To_numeric -> (
      match v with
      | R.Int _ -> v
      | v ->
        let f = num v in
        if Float.is_integer f && Float.abs f < 0x1p62 then R.Int (int_of_float f) else R.Real f)
    | Unchanged -> v

(* Evaluate [e] over [row]; [aggs] supplies values for resolved
   aggregate slots. *)
let rec eval (ctx : fn_ctx) ~(row : R.row) ~(aggs : R.row) (e : expr) : R.value =
  match e with
  | Lit v -> v
  | Colidx i -> row.(i)
  | Aggref i -> aggs.(i)
  | Col (q, n) ->
    error "unresolved column reference %s%s"
      (match q with Some t -> t ^ "." | None -> "")
      n
  | Unop (Neg, e) -> (
    match eval ctx ~row ~aggs e with
    | R.Null -> R.Null
    | R.Int i -> R.Int (-i)
    | R.Real f -> R.Real (-.f)
    | R.Text _ as v -> (
      match to_number v with Some f -> R.Real (-.f) | None -> R.Null))
  | Unop (Not, e) -> of_truth (Option.map not (truth (eval ctx ~row ~aggs e)))
  | Binop (And, a, b) -> (
    match truth (eval ctx ~row ~aggs a) with
    | Some false -> of_bool false
    | Some true -> of_truth (truth (eval ctx ~row ~aggs b))
    | None -> (
      match truth (eval ctx ~row ~aggs b) with
      | Some false -> of_bool false
      | _ -> R.Null))
  | Binop (Or, a, b) -> (
    match truth (eval ctx ~row ~aggs a) with
    | Some true -> of_bool true
    | Some false -> of_truth (truth (eval ctx ~row ~aggs b))
    | None -> (
      match truth (eval ctx ~row ~aggs b) with
      | Some true -> of_bool true
      | _ -> R.Null))
  | Binop (Concat, a, b) -> (
    match eval ctx ~row ~aggs a, eval ctx ~row ~aggs b with
    | R.Null, _ | _, R.Null -> R.Null
    | x, y -> R.Text (R.value_to_string x ^ R.value_to_string y))
  | Binop (((Add | Sub | Mul | Div | Mod) as op), a, b) ->
    arith op (eval ctx ~row ~aggs a) (eval ctx ~row ~aggs b)
  | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b) ->
    comparison op (eval ctx ~row ~aggs a) (eval ctx ~row ~aggs b)
  | Like { subject; pattern; negated } -> (
    match eval ctx ~row ~aggs subject, eval ctx ~row ~aggs pattern with
    | R.Null, _ | _, R.Null -> R.Null
    | s, p ->
      let m = like_match ~pattern:(R.value_to_string p) ~subject:(R.value_to_string s) in
      of_bool (if negated then not m else m))
  | In_list { subject; candidates; negated } -> (
    match eval ctx ~row ~aggs subject with
    | R.Null -> R.Null
    | s ->
      let saw_null = ref false in
      let found =
        List.exists
          (fun c ->
            match eval ctx ~row ~aggs c with
            | R.Null ->
              saw_null := true;
              false
            | v -> R.equal_value v s)
          candidates
      in
      if found then of_bool (not negated)
      else if !saw_null then R.Null
      else of_bool negated)
  | Between { subject; low; high; negated } ->
    let s = eval ctx ~row ~aggs subject in
    let lo = eval ctx ~row ~aggs low in
    let hi = eval ctx ~row ~aggs high in
    let ge = comparison Ge s lo and le = comparison Le s hi in
    let v =
      match truth ge, truth le with
      | Some false, _ | _, Some false -> Some false
      | Some true, Some true -> Some true
      | _ -> None
    in
    of_truth (match v with Some b when negated -> Some (not b) | v -> v)
  | Is_null { subject; negated } ->
    let isnull = eval ctx ~row ~aggs subject = R.Null in
    of_bool (if negated then not isnull else isnull)
  | Case { branches; else_ } ->
    let rec go = function
      | [] -> ( match else_ with Some e -> eval ctx ~row ~aggs e | None -> R.Null)
      | (cond, v) :: rest ->
        if truth (eval ctx ~row ~aggs cond) = Some true then eval ctx ~row ~aggs v else go rest
    in
    go branches
  | Call (name, args) -> (
    match ctx.lookup_fn name with
    | Some f -> f (Array.of_list (List.map (eval ctx ~row ~aggs) args))
    | None -> error "no such function: %s" name)
  | Cast (e, ty) -> cast_to ty (eval ctx ~row ~aggs e)
  | In_set { subject; set; has_null; negated } -> (
    match eval ctx ~row ~aggs subject with
    | R.Null -> R.Null
    | v ->
      if Hashtbl.mem set (R.encode_row [| v |]) then of_bool (not negated)
      else if has_null then R.Null
      else of_bool negated)
  | Subquery _ | In_select _ | Exists _ ->
    error "subqueries must be expanded before evaluation (internal error)"
  | Param i -> error "unbound parameter ?%d" (i + 1)
  | Agg _ -> error "aggregate used outside of an aggregation context"

let no_row : R.row = [||]

(* Evaluate a row-independent expression (literals, functions). *)
let eval_const ctx e = eval ctx ~row:no_row ~aggs:no_row e

(* --- static analysis helpers ---------------------------------------- *)

(* Does the expression contain any aggregate call? *)
let rec has_aggregate = function
  | Lit _ | Col _ | Colidx _ | Param _ -> false
  | Agg _ | Aggref _ -> true
  | Unop (_, e) -> has_aggregate e
  | Binop (_, a, b) -> has_aggregate a || has_aggregate b
  | Like { subject; pattern; _ } -> has_aggregate subject || has_aggregate pattern
  | In_list { subject; candidates; _ } ->
    has_aggregate subject || List.exists has_aggregate candidates
  | Between { subject; low; high; _ } ->
    has_aggregate subject || has_aggregate low || has_aggregate high
  | Is_null { subject; _ } -> has_aggregate subject
  | Case { branches; else_ } ->
    List.exists (fun (c, v) -> has_aggregate c || has_aggregate v) branches
    || (match else_ with Some e -> has_aggregate e | None -> false)
  | Call (_, args) -> List.exists has_aggregate args
  | Cast (e, _) -> has_aggregate e
  | In_set { subject; _ } -> has_aggregate subject
  (* aggregates inside a subquery belong to the subquery *)
  | Subquery _ -> false
  | In_select { subject; _ } -> has_aggregate subject
  | Exists _ -> false

(* Map over an expression bottom-up. *)
let rec map f e =
  let e' =
    match e with
    | Lit _ | Col _ | Colidx _ | Aggref _ | Param _ -> e
    | Unop (op, a) -> Unop (op, map f a)
    | Binop (op, a, b) -> Binop (op, map f a, map f b)
    | Like l -> Like { l with subject = map f l.subject; pattern = map f l.pattern }
    | In_list l ->
      In_list { l with subject = map f l.subject; candidates = List.map (map f) l.candidates }
    | Between b ->
      Between { b with subject = map f b.subject; low = map f b.low; high = map f b.high }
    | Is_null i -> Is_null { i with subject = map f i.subject }
    | Case { branches; else_ } ->
      Case
        { branches = List.map (fun (c, v) -> (map f c, map f v)) branches;
          else_ = Option.map (map f) else_ }
    | Agg a -> Agg { a with agg_arg = Option.map (map f) a.agg_arg }
    | Call (n, args) -> Call (n, List.map (map f) args)
    | Cast (e, ty) -> Cast (map f e, ty)
    | In_set s -> In_set { s with subject = map f s.subject }
    | Subquery _ | Exists _ -> e
    | In_select s -> In_select { s with subject = map f s.subject }
  in
  f e'

(* Map over an expression bottom-up, descending into subquery selects
   (every expression position of the nested select, including its AS OF,
   and of its UNION members).  [map] deliberately stops at subquery
   boundaries; use this variant when a rewrite must reach parameters or
   other leaves wherever they occur. *)
let rec map_deep f e =
  let e' =
    match e with
    | Lit _ | Col _ | Colidx _ | Aggref _ | Param _ -> e
    | Unop (op, a) -> Unop (op, map_deep f a)
    | Binop (op, a, b) -> Binop (op, map_deep f a, map_deep f b)
    | Like l -> Like { l with subject = map_deep f l.subject; pattern = map_deep f l.pattern }
    | In_list l ->
      In_list
        { l with
          subject = map_deep f l.subject;
          candidates = List.map (map_deep f) l.candidates }
    | Between b ->
      Between
        { b with
          subject = map_deep f b.subject;
          low = map_deep f b.low;
          high = map_deep f b.high }
    | Is_null i -> Is_null { i with subject = map_deep f i.subject }
    | Case { branches; else_ } ->
      Case
        { branches = List.map (fun (c, v) -> (map_deep f c, map_deep f v)) branches;
          else_ = Option.map (map_deep f) else_ }
    | Agg a -> Agg { a with agg_arg = Option.map (map_deep f) a.agg_arg }
    | Call (n, args) -> Call (n, List.map (map_deep f) args)
    | Cast (e, ty) -> Cast (map_deep f e, ty)
    | In_set s -> In_set { s with subject = map_deep f s.subject }
    | Subquery sub -> Subquery (map_select f sub)
    | In_select s -> In_select { s with subject = map_deep f s.subject; sub = map_select f s.sub }
    | Exists s -> Exists { s with sub = map_select f s.sub }
  in
  f e'

(* Apply [map_deep f] to every expression position of a select. *)
and map_select f (sel : select) : select =
  let e = map_deep f in
  { sel with
    as_of = Option.map e sel.as_of;
    items =
      List.map
        (function Sel_expr (x, a) -> Sel_expr (e x, a) | (Star | Table_star _) as i -> i)
        sel.items;
    from =
      Option.map
        (fun (t, js) -> (t, List.map (fun j -> { j with join_on = Option.map e j.join_on }) js))
        sel.from;
    where = Option.map e sel.where;
    group_by = List.map e sel.group_by;
    having = Option.map e sel.having;
    order_by = List.map (fun o -> { o with ord_expr = e o.ord_expr }) sel.order_by;
    limit = Option.map e sel.limit;
    offset = Option.map e sel.offset;
    union_with = List.map (fun (all, m) -> (all, map_select f m)) sel.union_with }

(* Split a WHERE into its AND-ed conjuncts. *)
let rec conjuncts = function
  | Binop (And, a, b) -> conjuncts a @ conjuncts b
  | e -> [ e ]
