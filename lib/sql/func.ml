(* Builtin scalar functions (the SQLite core-function subset the paper's
   workloads use).  User-defined functions registered on a database
   handle live in the same namespace and shadow nothing here.

   Each builtin states the range of argument counts it accepts, once:
   the call checks it and raises {!Sql_error.Error} before the body runs
   (so a body may index every argument in range), and the analyzer's
   E005 reads the same range through [arity]. *)

module R = Storage.Record

let error = Sql_error.error

type builtin = { arity : int * int; fn : R.value array -> R.value }

let describe_arity (lo, hi) =
  if hi = max_int then Printf.sprintf "at least %d argument%s" lo (if lo = 1 then "" else "s")
  else if lo = hi then Printf.sprintf "%d argument%s" lo (if lo = 1 then "" else "s")
  else Printf.sprintf "%d to %d arguments" lo hi

let arity_message name range n =
  Printf.sprintf "%s expects %s, got %d" name (describe_arity range) n

(* [most] = [max_int] for no upper bound. *)
let builtin name ((lo, hi) as arity) body =
  let fn args =
    let n = Array.length args in
    if n < lo || n > hi then error "%s" (arity_message name arity n);
    body args
  in
  (name, { arity; fn })

let builtins : (string * builtin) list =
  [ builtin "abs" (1, 1) (fun a ->
        match a.(0) with
        | R.Null -> R.Null
        | R.Int i -> R.Int (abs i)
        | R.Real f -> R.Real (Float.abs f)
        | v -> ( match Expr.to_number v with Some f -> R.Real (Float.abs f) | None -> R.Null));
    builtin "length" (1, 1) (fun a ->
        match a.(0) with
        | R.Null -> R.Null
        | v -> R.Int (String.length (R.value_to_string v)));
    builtin "lower" (1, 1) (fun a ->
        match a.(0) with
        | R.Null -> R.Null
        | v -> R.Text (String.lowercase_ascii (R.value_to_string v)));
    builtin "upper" (1, 1) (fun a ->
        match a.(0) with
        | R.Null -> R.Null
        | v -> R.Text (String.uppercase_ascii (R.value_to_string v)));
    builtin "substr" (2, 3) (fun a ->
        let sub s start len =
          let n = String.length s in
          (* SQL substr is 1-based; negative start counts from the end *)
          let start = if start < 0 then max 0 (n + start) else max 0 (start - 1) in
          let len = max 0 (min len (n - start)) in
          if start >= n then "" else String.sub s start len
        in
        match (a.(0), a.(1), if Array.length a = 3 then a.(2) else R.Int max_int) with
        | R.Null, _, _ -> R.Null
        | v, R.Int start, R.Int len -> R.Text (sub (R.value_to_string v) start len)
        | _ -> error "substr expects integer start and length");
    builtin "coalesce" (1, max_int) (fun a ->
        let rec go i =
          if i >= Array.length a then R.Null else if a.(i) <> R.Null then a.(i) else go (i + 1)
        in
        go 0);
    builtin "ifnull" (2, 2) (fun a -> if a.(0) = R.Null then a.(1) else a.(0));
    builtin "nullif" (2, 2) (fun a -> if R.equal_value a.(0) a.(1) then R.Null else a.(0));
    builtin "typeof" (1, 1) (fun a -> R.Text (String.lowercase_ascii (R.type_name a.(0))));
    builtin "round" (1, 2) (fun a ->
        let round1 f d =
          let m = 10. ** float_of_int d in
          Float.round (f *. m) /. m
        in
        match (a.(0), if Array.length a = 2 then a.(1) else R.Int 0) with
        | R.Null, _ -> R.Null
        | v, R.Int d -> (
          match Expr.to_number v with Some f -> R.Real (round1 f d) | None -> R.Null)
        | _ -> error "round expects integer digits");
    (* Scalar forms: NULL if any argument is NULL.  SQL spells MIN(x)
       and MAX(x) with one argument as the aggregates, so only a direct
       call reaches the one-argument form here. *)
    builtin "min" (1, max_int) (fun a ->
        if Array.exists (fun v -> v = R.Null) a then R.Null
        else Array.fold_left (fun acc v -> if R.compare_value v acc < 0 then v else acc) a.(0) a);
    builtin "max" (1, max_int) (fun a ->
        if Array.exists (fun v -> v = R.Null) a then R.Null
        else Array.fold_left (fun acc v -> if R.compare_value v acc > 0 then v else acc) a.(0) a);
    builtin "instr" (2, 2) (fun a ->
        match (a.(0), a.(1)) with
        | R.Null, _ | _, R.Null -> R.Null
        | hay, needle ->
          let h = R.value_to_string hay and nd = R.value_to_string needle in
          let hn = String.length h and nn = String.length nd in
          let rec go i =
            if i + nn > hn then 0 else if String.sub h i nn = nd then i + 1 else go (i + 1)
          in
          R.Int (go 0));
    builtin "trim" (1, 1) (fun a ->
        match a.(0) with
        | R.Null -> R.Null
        | v -> R.Text (String.trim (R.value_to_string v)));
    builtin "replace" (3, 3) (fun a ->
        match a.(0) with
        | R.Null -> R.Null
        | s ->
          let s = R.value_to_string s in
          let f = R.value_to_string a.(1) and t = R.value_to_string a.(2) in
          if f = "" then R.Text s
          else begin
            let buf = Buffer.create (String.length s) in
            let fl = String.length f in
            let i = ref 0 in
            while !i <= String.length s - fl do
              if String.sub s !i fl = f then begin
                Buffer.add_string buf t;
                i := !i + fl
              end
              else begin
                Buffer.add_char buf s.[!i];
                incr i
              end
            done;
            Buffer.add_string buf (String.sub s !i (String.length s - !i));
            R.Text (Buffer.contents buf)
          end) ]

let lookup name = List.assoc_opt (String.lowercase_ascii name) builtins
let find name = Option.map (fun b -> b.fn) (lookup name)
let arity name = Option.map (fun b -> b.arity) (lookup name)
