(* Recursive-descent parser producing Ast.stmt values.  Errors carry the
   1-based line:col of the offending token ("parse error at 3:17: ..."). *)

open Ast

type state = {
  toks : Lexer.token array;
  poss : Lexer.pos array; (* parallel to [toks]: each token's source span *)
  mutable pos : int;
  mutable nparams : int;
}

let peek st = st.toks.(st.pos)
let peek2 st = if st.pos + 1 < Array.length st.toks then st.toks.(st.pos + 1) else Lexer.Eof
let peek3 st = if st.pos + 2 < Array.length st.toks then st.toks.(st.pos + 2) else Lexer.Eof
let advance st = st.pos <- st.pos + 1

(* Raise a parse error positioned at the current token. *)
let error st fmt =
  let p = st.poss.(min st.pos (Array.length st.poss - 1)) in
  Printf.ksprintf (Sql_error.error "SQL parser: parse error at %s: %s" (Lexer.pos_to_string p)) fmt

let expect st tok =
  if peek st = tok then advance st
  else error st "expected %s but found %s" (Lexer.token_to_string tok) (Lexer.token_to_string (peek st))

let kw_eq name = function
  | Lexer.Ident s -> String.uppercase_ascii s = name
  | _ -> false

let is_kw st name = kw_eq name (peek st)

(* Consume keyword [name] if present; returns whether it was. *)
let accept_kw st name =
  if is_kw st name then begin
    advance st;
    true
  end
  else false

let expect_kw st name =
  if not (accept_kw st name) then
    error st "expected %s but found %s" name (Lexer.token_to_string (peek st))

let ident st =
  match peek st with
  | Lexer.Ident s ->
    advance st;
    s
  | t -> error st "expected identifier but found %s" (Lexer.token_to_string t)

(* Words that terminate an implicit (AS-less) alias position. *)
let reserved =
  [ "FROM"; "WHERE"; "GROUP"; "HAVING"; "ORDER"; "LIMIT"; "OFFSET"; "ON"; "JOIN";
    "INNER"; "CROSS"; "LEFT"; "AND"; "OR"; "NOT"; "AS"; "SET"; "VALUES"; "UNION";
    "ASC"; "DESC"; "WHEN"; "THEN"; "ELSE"; "END"; "BETWEEN"; "IN"; "LIKE"; "IS";
    "DISTINCT"; "ALL"; "SELECT"; "INSERT"; "UPDATE"; "DELETE"; "BY" ]

let is_reserved s = List.mem (String.uppercase_ascii s) reserved

(* MIN/MAX with one argument are aggregates (SQLite rule); with several
   arguments they are scalar functions. *)
let rec parse_expr st = parse_or st

and parse_or st =
  let lhs = ref (parse_and st) in
  while is_kw st "OR" do
    advance st;
    let rhs = parse_and st in
    lhs := Binop (Or, !lhs, rhs)
  done;
  !lhs

and parse_and st =
  let lhs = ref (parse_not st) in
  while is_kw st "AND" do
    advance st;
    let rhs = parse_not st in
    lhs := Binop (And, !lhs, rhs)
  done;
  !lhs

and parse_not st =
  if is_kw st "NOT" then begin
    advance st;
    Unop (Not, parse_not st)
  end
  else parse_comparison st

and parse_comparison st =
  let lhs = parse_additive st in
  let negated = accept_kw st "NOT" in
  match peek st with
  | Lexer.Eq ->
    advance st;
    let e = Binop (Eq, lhs, parse_additive st) in
    if negated then Unop (Not, e) else e
  | Lexer.Ne ->
    advance st;
    let e = Binop (Ne, lhs, parse_additive st) in
    if negated then Unop (Not, e) else e
  | Lexer.Lt ->
    advance st;
    let e = Binop (Lt, lhs, parse_additive st) in
    if negated then Unop (Not, e) else e
  | Lexer.Le ->
    advance st;
    let e = Binop (Le, lhs, parse_additive st) in
    if negated then Unop (Not, e) else e
  | Lexer.Gt ->
    advance st;
    let e = Binop (Gt, lhs, parse_additive st) in
    if negated then Unop (Not, e) else e
  | Lexer.Ge ->
    advance st;
    let e = Binop (Ge, lhs, parse_additive st) in
    if negated then Unop (Not, e) else e
  | Lexer.Ident id when String.uppercase_ascii id = "LIKE" ->
    advance st;
    Like { subject = lhs; pattern = parse_additive st; negated }
  | Lexer.Ident id when String.uppercase_ascii id = "BETWEEN" ->
    advance st;
    let low = parse_additive st in
    expect_kw st "AND";
    let high = parse_additive st in
    Between { subject = lhs; low; high; negated }
  | Lexer.Ident id when String.uppercase_ascii id = "IN" ->
    advance st;
    expect st Lexer.Lparen;
    if is_kw st "SELECT" then begin
      let sub = parse_select st in
      expect st Lexer.Rparen;
      In_select { subject = lhs; sub; negated }
    end
    else begin
      let rec items acc =
        let e = parse_expr st in
        if peek st = Lexer.Comma then begin
          advance st;
          items (e :: acc)
        end
        else List.rev (e :: acc)
      in
      let candidates = if peek st = Lexer.Rparen then [] else items [] in
      expect st Lexer.Rparen;
      In_list { subject = lhs; candidates; negated }
    end
  | Lexer.Ident id when String.uppercase_ascii id = "IS" ->
    advance st;
    let negated = accept_kw st "NOT" in
    expect_kw st "NULL";
    Is_null { subject = lhs; negated }
  | _ ->
    if negated then error st "dangling NOT in expression"
    else lhs

and parse_additive st =
  let lhs = ref (parse_multiplicative st) in
  let rec go () =
    match peek st with
    | Lexer.Plus ->
      advance st;
      lhs := Binop (Add, !lhs, parse_multiplicative st);
      go ()
    | Lexer.Minus ->
      advance st;
      lhs := Binop (Sub, !lhs, parse_multiplicative st);
      go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_multiplicative st =
  let lhs = ref (parse_concat st) in
  let rec go () =
    match peek st with
    | Lexer.Star ->
      advance st;
      lhs := Binop (Mul, !lhs, parse_concat st);
      go ()
    | Lexer.Slash ->
      advance st;
      lhs := Binop (Div, !lhs, parse_concat st);
      go ()
    | Lexer.Percent ->
      advance st;
      lhs := Binop (Mod, !lhs, parse_concat st);
      go ()
    | _ -> ()
  in
  go ();
  !lhs

and parse_concat st =
  let lhs = ref (parse_unary st) in
  while peek st = Lexer.Concat_op do
    advance st;
    lhs := Binop (Concat, !lhs, parse_unary st)
  done;
  !lhs

and parse_unary st =
  match peek st with
  | Lexer.Minus ->
    advance st;
    Unop (Neg, parse_unary st)
  | Lexer.Plus ->
    advance st;
    parse_unary st
  | _ -> parse_primary st

and parse_primary st =
  match peek st with
  | Lexer.Question ->
    advance st;
    let i = st.nparams in
    st.nparams <- i + 1;
    Param i
  | Lexer.Int_lit i ->
    advance st;
    Lit (Storage.Record.Int i)
  | Lexer.Float_lit f ->
    advance st;
    Lit (Storage.Record.Real f)
  | Lexer.Str s ->
    advance st;
    Lit (Storage.Record.Text s)
  | Lexer.Lparen ->
    advance st;
    if is_kw st "SELECT" then begin
      let sub = parse_select st in
      expect st Lexer.Rparen;
      Subquery sub
    end
    else begin
      let e = parse_expr st in
      expect st Lexer.Rparen;
      e
    end
  | Lexer.Ident id when String.uppercase_ascii id = "EXISTS" && peek2 st = Lexer.Lparen ->
    advance st;
    advance st;
    let sub = parse_select st in
    expect st Lexer.Rparen;
    Exists { sub; negated = false }
  | Lexer.Ident id
    when String.uppercase_ascii id = "NOT" && kw_eq "EXISTS" (peek2 st) && peek3 st = Lexer.Lparen
    ->
    advance st;
    advance st;
    advance st;
    let sub = parse_select st in
    expect st Lexer.Rparen;
    Exists { sub; negated = true }
  | Lexer.Ident id when String.uppercase_ascii id = "CAST" && peek2 st = Lexer.Lparen ->
    advance st;
    advance st;
    let e = parse_expr st in
    expect_kw st "AS";
    let buf = Buffer.create 8 in
    let rec ty () =
      match peek st with
      | Lexer.Ident s ->
        advance st;
        if Buffer.length buf > 0 then Buffer.add_char buf ' ';
        Buffer.add_string buf s;
        ty ()
      | _ -> ()
    in
    ty ();
    expect st Lexer.Rparen;
    Cast (e, Buffer.contents buf)
  | Lexer.Ident id when String.uppercase_ascii id = "NULL" ->
    advance st;
    Lit Storage.Record.Null
  | Lexer.Ident id when String.uppercase_ascii id = "CASE" ->
    advance st;
    let rec branches acc =
      if accept_kw st "WHEN" then begin
        let cond = parse_expr st in
        expect_kw st "THEN";
        let v = parse_expr st in
        branches ((cond, v) :: acc)
      end
      else List.rev acc
    in
    let branches = branches [] in
    let else_ = if accept_kw st "ELSE" then Some (parse_expr st) else None in
    expect_kw st "END";
    Case { branches; else_ }
  | Lexer.Ident id when peek2 st = Lexer.Lparen ->
    advance st;
    advance st;
    let upper = String.uppercase_ascii id in
    if upper = "COUNT" && peek st = Lexer.Star then begin
      advance st;
      expect st Lexer.Rparen;
      Agg { agg_fn = Count; agg_arg = None; agg_distinct = false }
    end
    else begin
      let distinct = accept_kw st "DISTINCT" in
      let args =
        if peek st = Lexer.Rparen then []
        else begin
          let rec go acc =
            let e = parse_expr st in
            if peek st = Lexer.Comma then begin
              advance st;
              go (e :: acc)
            end
            else List.rev (e :: acc)
          in
          go []
        end
      in
      expect st Lexer.Rparen;
      match agg_fn_of_name id, args with
      | Some fn, [ a ] -> Agg { agg_fn = fn; agg_arg = Some a; agg_distinct = distinct }
      | Some Count, [] -> Agg { agg_fn = Count; agg_arg = None; agg_distinct = distinct }
      | _ when distinct -> error st "DISTINCT is only valid in aggregate functions"
      | _ -> Call (String.lowercase_ascii id, args)
    end
  | Lexer.Ident id when peek2 st = Lexer.Dot && (match peek3 st with Lexer.Ident _ -> true | _ -> false) ->
    advance st;
    advance st;
    let col = ident st in
    Col (Some id, col)
  | Lexer.Ident id when not (is_reserved id) ->
    advance st;
    Col (None, id)
  | t -> error st "unexpected token %s in expression" (Lexer.token_to_string t)

(* --- SELECT ---------------------------------------------------------- *)

and parse_alias st =
  if accept_kw st "AS" then Some (ident st)
  else
    match peek st with
    | Lexer.Ident id when not (is_reserved id) ->
      advance st;
      Some id
    | _ -> None

and parse_table_ref st =
  let name = ident st in
  let alias = parse_alias st in
  { tbl_name = name; tbl_alias = alias }

and parse_select st =
  let core = parse_select_core st in
  (* UNION / UNION ALL chains; ORDER BY/LIMIT of the last member apply to
     the whole compound *)
  let rec unions acc =
    if is_kw st "UNION" then begin
      advance st;
      let all = accept_kw st "ALL" in
      let next = parse_select_core st in
      unions ((all, next) :: acc)
    end
    else List.rev acc
  in
  let chain = unions [] in
  if chain = [] then core
  else begin
    (* move trailing ORDER BY / LIMIT of the last member to the compound *)
    match List.rev chain with
    | (all_last, last) :: rev_rest ->
      let chain =
        List.rev
          ((all_last, { last with order_by = []; limit = None; offset = None }) :: rev_rest)
      in
      { core with
        union_with = chain;
        order_by = last.order_by;
        limit = last.limit;
        offset = last.offset }
    | [] -> core
  end

and parse_select_core st =
  expect_kw st "SELECT";
  let as_of =
    if is_kw st "AS" && kw_eq "OF" (peek2 st) then begin
      advance st;
      advance st;
      Some (parse_unary st)
    end
    else None
  in
  let distinct = if accept_kw st "DISTINCT" then true else (ignore (accept_kw st "ALL"); false) in
  let items =
    let rec go acc =
      let item =
        if peek st = Lexer.Star then begin
          advance st;
          Star
        end
        else
          match peek st, peek2 st, peek3 st with
          | Lexer.Ident t, Lexer.Dot, Lexer.Star ->
            advance st;
            advance st;
            advance st;
            Table_star t
          | _ ->
            let e = parse_expr st in
            let alias = parse_alias st in
            Sel_expr (e, alias)
      in
      if peek st = Lexer.Comma then begin
        advance st;
        go (item :: acc)
      end
      else List.rev (item :: acc)
    in
    go []
  in
  let from =
    if accept_kw st "FROM" then begin
      let first = parse_table_ref st in
      let rec joins acc =
        if peek st = Lexer.Comma then begin
          advance st;
          let tr = parse_table_ref st in
          joins ({ join_table = tr; join_on = None; join_kind = Join_inner } :: acc)
        end
        else if is_kw st "JOIN" || is_kw st "INNER" || is_kw st "CROSS" || is_kw st "LEFT"
        then begin
          let kind =
            if accept_kw st "LEFT" then begin
              ignore (accept_kw st "OUTER");
              Join_left
            end
            else begin
              ignore (accept_kw st "INNER");
              ignore (accept_kw st "CROSS");
              Join_inner
            end
          in
          expect_kw st "JOIN";
          let tr = parse_table_ref st in
          let on = if accept_kw st "ON" then Some (parse_expr st) else None in
          if kind = Join_left && on = None then error st "LEFT JOIN requires an ON condition";
          joins ({ join_table = tr; join_on = on; join_kind = kind } :: acc)
        end
        else List.rev acc
      in
      Some (first, joins [])
    end
    else None
  in
  let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
  let group_by =
    if accept_kw st "GROUP" then begin
      expect_kw st "BY";
      let rec go acc =
        let e = parse_expr st in
        if peek st = Lexer.Comma then begin
          advance st;
          go (e :: acc)
        end
        else List.rev (e :: acc)
      in
      go []
    end
    else []
  in
  let having = if accept_kw st "HAVING" then Some (parse_expr st) else None in
  let order_by =
    if accept_kw st "ORDER" then begin
      expect_kw st "BY";
      let rec go acc =
        let e = parse_expr st in
        let desc = if accept_kw st "DESC" then true else (ignore (accept_kw st "ASC"); false) in
        if peek st = Lexer.Comma then begin
          advance st;
          go ({ ord_expr = e; ord_desc = desc } :: acc)
        end
        else List.rev ({ ord_expr = e; ord_desc = desc } :: acc)
      in
      go []
    end
    else []
  in
  let limit = if accept_kw st "LIMIT" then Some (parse_expr st) else None in
  let offset = if accept_kw st "OFFSET" then Some (parse_expr st) else None in
  { as_of; distinct; items; from; where; group_by; having; order_by; limit; offset;
    union_with = [] }

(* --- statements ------------------------------------------------------ *)

and parse_stmt st =
  if is_kw st "SELECT" then Select (parse_select st)
  else if is_kw st "EXPLAIN" then begin
    advance st;
    if accept_kw st "PROFILE" then Explain_profile (parse_select st)
    else if accept_kw st "ANALYZE" then Explain_analyze (parse_select st)
    else if accept_kw st "LINT" then Explain_lint (parse_stmt st)
    else begin
      ignore (accept_kw st "QUERY");
      ignore (accept_kw st "PLAN");
      Explain (parse_select st)
    end
  end
  else if accept_kw st "INSERT" then begin
    expect_kw st "INTO";
    let table = ident st in
    let columns =
      if peek st = Lexer.Lparen && not (kw_eq "SELECT" (peek2 st)) then begin
        advance st;
        let rec go acc =
          let c = ident st in
          if peek st = Lexer.Comma then begin
            advance st;
            go (c :: acc)
          end
          else List.rev (c :: acc)
        in
        let cols = go [] in
        expect st Lexer.Rparen;
        Some cols
      end
      else None
    in
    if accept_kw st "VALUES" then begin
      let parse_row () =
        expect st Lexer.Lparen;
        let rec go acc =
          let e = parse_expr st in
          if peek st = Lexer.Comma then begin
            advance st;
            go (e :: acc)
          end
          else List.rev (e :: acc)
        in
        let row = go [] in
        expect st Lexer.Rparen;
        row
      in
      let rec rows acc =
        let r = parse_row () in
        if peek st = Lexer.Comma then begin
          advance st;
          rows (r :: acc)
        end
        else List.rev (r :: acc)
      in
      Insert { table; columns; values = rows []; from_select = None }
    end
    else Insert { table; columns; values = []; from_select = Some (parse_select st) }
  end
  else if accept_kw st "DELETE" then begin
    expect_kw st "FROM";
    let table = ident st in
    let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
    Delete { table; where }
  end
  else if accept_kw st "UPDATE" then begin
    let table = ident st in
    expect_kw st "SET";
    let rec sets acc =
      let c = ident st in
      expect st Lexer.Eq;
      let e = parse_expr st in
      if peek st = Lexer.Comma then begin
        advance st;
        sets ((c, e) :: acc)
      end
      else List.rev ((c, e) :: acc)
    in
    let sets = sets [] in
    let where = if accept_kw st "WHERE" then Some (parse_expr st) else None in
    Update { table; sets; where }
  end
  else if accept_kw st "CREATE" then begin
    ignore (accept_kw st "UNIQUE");
    ignore (accept_kw st "TEMP");
    ignore (accept_kw st "TEMPORARY");
    if accept_kw st "TABLE" then begin
      let if_not_exists =
        if is_kw st "IF" then begin
          advance st;
          expect_kw st "NOT";
          expect_kw st "EXISTS";
          true
        end
        else false
      in
      let table = ident st in
      if accept_kw st "AS" then
        Create_table { table; cols = []; if_not_exists; as_select = Some (parse_select st) }
      else begin
        expect st Lexer.Lparen;
        let parse_col () =
          let name = ident st in
          (* consume type tokens: idents and (n[,m]) up to , or ) *)
          let buf = Buffer.create 8 in
          let rec go () =
            match peek st with
            | Lexer.Ident s when not (is_reserved s) ->
              advance st;
              if Buffer.length buf > 0 then Buffer.add_char buf ' ';
              Buffer.add_string buf s;
              go ()
            | Lexer.Lparen ->
              advance st;
              let rec inner () =
                match peek st with
                | Lexer.Rparen ->
                  advance st
                | _ ->
                  advance st;
                  inner ()
              in
              inner ();
              go ()
            | _ -> ()
          in
          go ();
          { col_name = name; col_type = Buffer.contents buf }
        in
        let rec cols acc =
          let c = parse_col () in
          if peek st = Lexer.Comma then begin
            advance st;
            cols (c :: acc)
          end
          else List.rev (c :: acc)
        in
        let cols = cols [] in
        expect st Lexer.Rparen;
        Create_table { table; cols; if_not_exists; as_select = None }
      end
    end
    else if accept_kw st "INDEX" then begin
      let if_not_exists =
        if is_kw st "IF" then begin
          advance st;
          expect_kw st "NOT";
          expect_kw st "EXISTS";
          true
        end
        else false
      in
      let index = ident st in
      expect_kw st "ON";
      let table = ident st in
      expect st Lexer.Lparen;
      let rec go acc =
        let c = ident st in
        if peek st = Lexer.Comma then begin
          advance st;
          go (c :: acc)
        end
        else List.rev (c :: acc)
      in
      let columns = go [] in
      expect st Lexer.Rparen;
      Create_index { index; table; columns; if_not_exists }
    end
    else error st "expected TABLE or INDEX after CREATE"
  end
  else if accept_kw st "DROP" then begin
    if accept_kw st "TABLE" then begin
      let if_exists = if is_kw st "IF" then (advance st; expect_kw st "EXISTS"; true) else false in
      Drop_table { table = ident st; if_exists }
    end
    else if accept_kw st "INDEX" then begin
      let if_exists = if is_kw st "IF" then (advance st; expect_kw st "EXISTS"; true) else false in
      Drop_index { index = ident st; if_exists }
    end
    else error st "expected TABLE or INDEX after DROP"
  end
  else if accept_kw st "BEGIN" then begin
    ignore (accept_kw st "TRANSACTION");
    Begin_txn
  end
  else if accept_kw st "COMMIT" then begin
    let with_snapshot =
      if is_kw st "WITH" then begin
        advance st;
        expect_kw st "SNAPSHOT";
        true
      end
      else false
    in
    Commit { with_snapshot }
  end
  else if accept_kw st "ROLLBACK" then Rollback
  else if accept_kw st "ANALYZE" then begin
    expect_kw st "ARCHIVE";
    Analyze_archive
  end
  else if accept_kw st "VACUUM" then begin
    (* VACUUM SNAPSHOTS [OLDER THAN n | KEEPING LAST n] [DRY RUN];
       bare VACUUM SNAPSHOTS drops everything but the newest. *)
    expect_kw st "SNAPSHOTS";
    let older_than, keeping_last =
      if is_kw st "OLDER" then begin
        advance st;
        expect_kw st "THAN";
        (Some (parse_expr st), None)
      end
      else if is_kw st "KEEPING" then begin
        advance st;
        expect_kw st "LAST";
        (None, Some (parse_expr st))
      end
      else (None, None)
    in
    let dry_run =
      if is_kw st "DRY" then begin
        advance st;
        expect_kw st "RUN";
        true
      end
      else false
    in
    Vacuum_snapshots { older_than; keeping_last; dry_run }
  end
  else if accept_kw st "CHECKPOINT" then Checkpoint
  else if accept_kw st "PRAGMA" then begin
    (* PRAGMA name [= value]; the engine receives "name" or "name=value"
       as one string, so the statement type stays a plain Pragma. *)
    let name = ident st in
    if peek st = Lexer.Eq then begin
      advance st;
      let value =
        match peek st with
        | Lexer.Ident s ->
          advance st;
          s
        | Lexer.Int_lit n ->
          advance st;
          string_of_int n
        | t -> error st "expected pragma value but found %s" (Lexer.token_to_string t)
      in
      Pragma (name ^ "=" ^ value)
    end
    else Pragma name
  end
  else error st "unexpected token %s at start of statement" (Lexer.token_to_string (peek st))

let state_of (sql : string) : state =
  let spanned = Lexer.tokenize_pos sql in
  { toks = Array.of_list (List.map fst spanned);
    poss = Array.of_list (List.map snd spanned);
    pos = 0;
    nparams = 0 }

(* Parse a single statement; trailing semicolon optional. *)
let parse_one (sql : string) : stmt =
  let st = state_of sql in
  let s = parse_stmt st in
  while peek st = Lexer.Semi do advance st done;
  if peek st <> Lexer.Eof then
    error st "trailing input after statement: %s" (Lexer.token_to_string (peek st));
  s

(* Parse a script of semicolon-separated statements. *)
let parse_many (sql : string) : stmt list =
  let st = state_of sql in
  let rec go acc =
    while peek st = Lexer.Semi do advance st done;
    if peek st = Lexer.Eof then List.rev acc else go (parse_stmt st :: acc)
  in
  go []
