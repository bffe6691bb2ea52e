(* SQL tokenizer.  Keywords are returned as [Ident] and matched
   case-insensitively by the parser, as SQLite does.

   Every token carries a source span: the 1-based (line, col) of its
   first character.  The parser threads spans into its error messages
   ("parse error at 3:17: ...") and the analyzer uses them to attach
   positions to diagnostics. *)

type token =
  | Ident of string
  | Str of string      (* 'single quoted', '' escapes a quote *)
  | Int_lit of int
  | Float_lit of float
  | Lparen | Rparen | Comma | Dot | Semi
  | Star | Plus | Minus | Slash | Percent
  | Eq | Ne | Lt | Le | Gt | Ge
  | Concat_op
  | Question          (* positional parameter placeholder *)
  | Eof

(* 1-based source position of a token's first character. *)
type pos = { line : int; col : int }

let pos_to_string p = Printf.sprintf "%d:%d" p.line p.col

let error fmt = Printf.ksprintf (Sql_error.error "SQL lexer: %s") fmt

let is_ident_start c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'
let is_ident_char c = is_ident_start c || (c >= '0' && c <= '9')
let is_digit c = c >= '0' && c <= '9'

(* Tokenize [s] fully, pairing each token with its source position. *)
let tokenize_pos (s : string) : (token * pos) list =
  let n = String.length s in
  let toks = ref [] in
  let i = ref 0 in
  (* line/bol track the current line number and the offset of its first
     character; the column of offset [o] on the current line is
     [o - bol + 1]. *)
  let line = ref 1 in
  let bol = ref 0 in
  let advance () =
    if !i < n && s.[!i] = '\n' then begin
      incr line;
      bol := !i + 1
    end;
    incr i
  in
  let advance_by k = for _ = 1 to k do advance () done in
  let pos_at off = { line = !line; col = off - !bol + 1 } in
  let push_at p t = toks := (t, p) :: !toks in
  let peek k = if !i + k < n then Some s.[!i + k] else None in
  while !i < n do
    let c = s.[!i] in
    let start_pos = pos_at !i in
    if c = ' ' || c = '\t' || c = '\n' || c = '\r' then advance ()
    else if c = '-' && peek 1 = Some '-' then begin
      (* line comment *)
      while !i < n && s.[!i] <> '\n' do advance () done
    end
    else if c = '/' && peek 1 = Some '*' then begin
      advance_by 2;
      let rec skip () =
        if !i + 1 >= n then
          error "unterminated /* comment at %s" (pos_to_string start_pos)
        else if s.[!i] = '*' && s.[!i + 1] = '/' then advance_by 2
        else begin advance (); skip () end
      in
      skip ()
    end
    else if is_ident_start c then begin
      let start = !i in
      while !i < n && is_ident_char s.[!i] do advance () done;
      push_at start_pos (Ident (String.sub s start (!i - start)))
    end
    else if is_digit c || (c = '.' && (match peek 1 with Some d -> is_digit d | None -> false))
    then begin
      let start = !i in
      while !i < n && is_digit s.[!i] do advance () done;
      let is_float = ref false in
      if !i < n && s.[!i] = '.' then begin
        is_float := true;
        advance ();
        while !i < n && is_digit s.[!i] do advance () done
      end;
      if !i < n && (s.[!i] = 'e' || s.[!i] = 'E') then begin
        is_float := true;
        advance ();
        if !i < n && (s.[!i] = '+' || s.[!i] = '-') then advance ();
        while !i < n && is_digit s.[!i] do advance () done
      end;
      let text = String.sub s start (!i - start) in
      match if !is_float then None else int_of_string_opt text with
      | Some v -> push_at start_pos (Int_lit v)
      | None -> (
        match float_of_string_opt text with (* None: an exponent without digits *)
        | Some f -> push_at start_pos (Float_lit f)
        | None -> error "malformed number %s at %s" text (pos_to_string start_pos))
    end
    else if c = '\'' then begin
      advance ();
      let buf = Buffer.create 16 in
      let rec go () =
        if !i >= n then
          error "unterminated string literal at %s" (pos_to_string start_pos)
        else if s.[!i] = '\'' then
          if peek 1 = Some '\'' then begin
            Buffer.add_char buf '\'';
            advance_by 2;
            go ()
          end
          else advance ()
        else begin
          Buffer.add_char buf s.[!i];
          advance ();
          go ()
        end
      in
      go ();
      push_at start_pos (Str (Buffer.contents buf))
    end
    else if c = '"' then begin
      (* double-quoted identifier *)
      advance ();
      let start = !i in
      while !i < n && s.[!i] <> '"' do advance () done;
      if !i >= n then error "unterminated quoted identifier at %s" (pos_to_string start_pos);
      push_at start_pos (Ident (String.sub s start (!i - start)));
      advance ()
    end
    else begin
      let two a b t =
        if c = a && peek 1 = Some b then begin
          push_at start_pos t;
          advance_by 2;
          true
        end
        else false
      in
      if two '<' '=' Le || two '>' '=' Ge || two '<' '>' Ne || two '!' '=' Ne
         || two '|' '|' Concat_op || two '=' '=' Eq
      then ()
      else begin
        (match c with
        | '(' -> push_at start_pos Lparen
        | ')' -> push_at start_pos Rparen
        | ',' -> push_at start_pos Comma
        | '.' -> push_at start_pos Dot
        | ';' -> push_at start_pos Semi
        | '*' -> push_at start_pos Star
        | '+' -> push_at start_pos Plus
        | '-' -> push_at start_pos Minus
        | '/' -> push_at start_pos Slash
        | '%' -> push_at start_pos Percent
        | '=' -> push_at start_pos Eq
        | '<' -> push_at start_pos Lt
        | '>' -> push_at start_pos Gt
        | '?' -> push_at start_pos Question
        | c -> error "unexpected character %C at %s" c (pos_to_string start_pos));
        advance ()
      end
    end
  done;
  let eof_pos = pos_at n in
  List.rev ((Eof, eof_pos) :: !toks)

(* Positions dropped, for callers that only need the token stream. *)
let tokenize (s : string) : token list = List.map fst (tokenize_pos s)

let token_to_string = function
  | Ident s -> s
  | Str s -> Printf.sprintf "'%s'" s
  | Int_lit i -> string_of_int i
  | Float_lit f -> string_of_float f
  | Lparen -> "(" | Rparen -> ")" | Comma -> "," | Dot -> "." | Semi -> ";"
  | Star -> "*" | Plus -> "+" | Minus -> "-" | Slash -> "/" | Percent -> "%"
  | Eq -> "=" | Ne -> "<>" | Lt -> "<" | Le -> "<=" | Gt -> ">" | Ge -> ">="
  | Concat_op -> "||"
  | Question -> "?"
  | Eof -> "<eof>"
