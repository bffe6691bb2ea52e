(* Builtin scalar functions (the SQLite core-function subset the paper's
   workloads use).  User-defined functions registered on a database
   handle live in the same namespace and shadow nothing here. *)

module R = Storage.Record

exception Error = Expr.Error

let error = Expr.error

let builtins : (string * (R.value array -> R.value)) list =
  [ ( "abs",
      fun args ->
        match args with
        | [| R.Null |] -> R.Null
        | [| R.Int i |] -> R.Int (abs i)
        | [| R.Real f |] -> R.Real (Float.abs f)
        | [| v |] -> (
          match Expr.to_number v with Some f -> R.Real (Float.abs f) | None -> R.Null)
        | _ -> error "abs expects 1 argument" );
    ( "length",
      fun args ->
        match args with
        | [| R.Null |] -> R.Null
        | [| v |] -> R.Int (String.length (R.value_to_string v))
        | _ -> error "length expects 1 argument" );
    ( "lower",
      fun args ->
        match args with
        | [| R.Null |] -> R.Null
        | [| v |] -> R.Text (String.lowercase_ascii (R.value_to_string v))
        | _ -> error "lower expects 1 argument" );
    ( "upper",
      fun args ->
        match args with
        | [| R.Null |] -> R.Null
        | [| v |] -> R.Text (String.uppercase_ascii (R.value_to_string v))
        | _ -> error "upper expects 1 argument" );
    ( "substr",
      fun args ->
        let sub s start len =
          let n = String.length s in
          (* SQL substr is 1-based; negative start counts from the end *)
          let start = if start < 0 then max 0 (n + start) else max 0 (start - 1) in
          let len = max 0 (min len (n - start)) in
          if start >= n then "" else String.sub s start len
        in
        match args with
        | [| R.Null; _ |] | [| R.Null; _; _ |] -> R.Null
        | [| v; R.Int start |] -> R.Text (sub (R.value_to_string v) start max_int)
        | [| v; R.Int start; R.Int len |] -> R.Text (sub (R.value_to_string v) start len)
        | _ -> error "substr expects (text, start [, length])" );
    ( "coalesce",
      fun args ->
        if args = [||] then error "coalesce expects at least 1 argument";
        let rec go i =
          if i >= Array.length args then R.Null
          else if args.(i) <> R.Null then args.(i)
          else go (i + 1)
        in
        go 0 );
    ( "ifnull",
      fun args ->
        match args with
        | [| a; b |] -> if a = R.Null then b else a
        | _ -> error "ifnull expects 2 arguments" );
    ( "nullif",
      fun args ->
        match args with
        | [| a; b |] -> if R.equal_value a b then R.Null else a
        | _ -> error "nullif expects 2 arguments" );
    ( "typeof",
      fun args ->
        match args with
        | [| v |] -> R.Text (String.lowercase_ascii (R.type_name v))
        | _ -> error "typeof expects 1 argument" );
    ( "round",
      fun args ->
        let round1 f d =
          let m = 10. ** float_of_int d in
          Float.round (f *. m) /. m
        in
        match args with
        | [| R.Null |] | [| R.Null; _ |] -> R.Null
        | [| v |] -> (
          match Expr.to_number v with Some f -> R.Real (round1 f 0) | None -> R.Null)
        | [| v; R.Int d |] -> (
          match Expr.to_number v with Some f -> R.Real (round1 f d) | None -> R.Null)
        | _ -> error "round expects (number [, digits])" );
    ( "min",
      fun args ->
        (* scalar form: smallest of 2+ arguments; NULL if any is NULL *)
        if Array.exists (fun v -> v = R.Null) args then R.Null
        else Array.fold_left (fun acc v -> if R.compare_value v acc < 0 then v else acc) args.(0) args );
    ( "max",
      fun args ->
        if Array.exists (fun v -> v = R.Null) args then R.Null
        else Array.fold_left (fun acc v -> if R.compare_value v acc > 0 then v else acc) args.(0) args );
    ( "instr",
      fun args ->
        match args with
        | [| R.Null; _ |] | [| _; R.Null |] -> R.Null
        | [| hay; needle |] ->
          let h = R.value_to_string hay and nd = R.value_to_string needle in
          let hn = String.length h and nn = String.length nd in
          let rec go i =
            if i + nn > hn then 0 else if String.sub h i nn = nd then i + 1 else go (i + 1)
          in
          R.Int (go 0)
        | _ -> error "instr expects 2 arguments" );
    ( "trim",
      fun args ->
        match args with
        | [| R.Null |] -> R.Null
        | [| v |] -> R.Text (String.trim (R.value_to_string v))
        | _ -> error "trim expects 1 argument" );
    ( "replace",
      fun args ->
        match args with
        | [| R.Null; _; _ |] -> R.Null
        | [| s; from_; to_ |] ->
          let s = R.value_to_string s in
          let f = R.value_to_string from_ and t = R.value_to_string to_ in
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
          end
        | _ -> error "replace expects 3 arguments" );
  ]

let find name = List.assoc_opt (String.lowercase_ascii name) builtins
