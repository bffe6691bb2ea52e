(* Tokenizer tests. *)

open Sqldb.Lexer

let token_eq a b = a = b

let token_t = Alcotest.testable (fun ppf t -> Fmt.string ppf (token_to_string t)) token_eq

let toks s = tokenize s

let tests =
  [ Alcotest.test_case "simple select" `Quick (fun () ->
        Alcotest.(check (list token_t)) "tokens"
          [ Ident "SELECT"; Star; Ident "FROM"; Ident "t"; Eof ]
          (toks "SELECT * FROM t"));
    Alcotest.test_case "numbers" `Quick (fun () ->
        Alcotest.(check (list token_t)) "ints and floats"
          [ Int_lit 42; Float_lit 3.5; Float_lit 0.5; Float_lit 1e3; Eof ]
          (toks "42 3.5 .5 1e3"));
    Alcotest.test_case "string literals with escapes" `Quick (fun () ->
        Alcotest.(check (list token_t)) "escape"
          [ Str "it's"; Eof ]
          (toks "'it''s'"));
    Alcotest.test_case "empty string literal" `Quick (fun () ->
        Alcotest.(check (list token_t)) "empty" [ Str ""; Eof ] (toks "''"));
    Alcotest.test_case "operators" `Quick (fun () ->
        Alcotest.(check (list token_t)) "ops"
          [ Eq; Ne; Ne; Lt; Le; Gt; Ge; Concat_op; Plus; Minus; Slash; Percent; Eof ]
          (toks "= <> != < <= > >= || + - / %"));
    Alcotest.test_case "comments are skipped" `Quick (fun () ->
        Alcotest.(check (list token_t)) "line and block"
          [ Ident "a"; Ident "b"; Eof ]
          (toks "a -- comment\n/* block\ncomment */ b"));
    Alcotest.test_case "quoted identifiers" `Quick (fun () ->
        Alcotest.(check (list token_t)) "quoted" [ Ident "weird name"; Eof ]
          (toks "\"weird name\""));
    Alcotest.test_case "punctuation" `Quick (fun () ->
        Alcotest.(check (list token_t)) "punct"
          [ Lparen; Rparen; Comma; Dot; Semi; Eof ]
          (toks "( ) , . ;"));
    Alcotest.test_case "unterminated string raises" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (toks "'oops");
             false
           with Sqldb.Engine.Error _ -> true));
    Alcotest.test_case "parameter placeholder" `Quick (fun () ->
        Alcotest.(check (list token_t)) "question"
          [ Ident "a"; Eq; Question; Eof ]
          (toks "a = ?"));
    Alcotest.test_case "exponent without digits raises" `Quick (fun () ->
        List.iter
          (fun (s, want) ->
            Alcotest.(check string) s want
              (match toks s with
              | _ -> "no error"
              | exception Sqldb.Engine.Error msg -> msg))
          [ ("1e", "SQL lexer: malformed number 1e at 1:1");
            ("x + 1e+", "SQL lexer: malformed number 1e+ at 1:5");
            ("1.5e-", "SQL lexer: malformed number 1.5e- at 1:1") ]);
    Alcotest.test_case "unexpected character raises" `Quick (fun () ->
        Alcotest.(check bool) "raises" true
          (try
             ignore (toks "a @ b");
             false
           with Sqldb.Engine.Error _ -> true)) ]

let pos_t =
  Alcotest.testable (fun ppf p -> Fmt.string ppf (pos_to_string p)) ( = )

let span_tests =
  [ Alcotest.test_case "tokenize_pos records line and column" `Quick (fun () ->
        Alcotest.(check (list (pair token_t pos_t))) "spans"
          [ (Ident "SELECT", { line = 1; col = 1 });
            (Ident "x", { line = 1; col = 8 });
            (Comma, { line = 1; col = 9 });
            (Ident "y", { line = 2; col = 3 });
            (Ident "FROM", { line = 2; col = 5 });
            (Ident "t", { line = 2; col = 10 });
            (Eof, { line = 2; col = 11 }) ]
          (tokenize_pos "SELECT x,\n  y FROM t"));
    Alcotest.test_case "comments and strings advance positions" `Quick (fun () ->
        Alcotest.(check (list (pair token_t pos_t))) "spans"
          [ (Str "s", { line = 1; col = 1 });
            (Ident "b", { line = 2; col = 12 });
            (Eof, { line = 2; col = 13 }) ]
          (tokenize_pos "'s' -- c\n/* block */b"));
    Alcotest.test_case "lexer errors carry the position" `Quick (fun () ->
        Alcotest.(check bool) "positioned" true
          (try
             ignore (toks "a\n @ b");
             false
           with Sqldb.Engine.Error msg ->
             (* the '@' sits at line 2, column 2 *)
             let has needle =
               let nl = String.length needle and hl = String.length msg in
               let rec at i = i + nl <= hl && (String.sub msg i nl = needle || at (i + 1)) in
               at 0
             in
             has "2:2")) ]

let () = Alcotest.run "lexer" [ ("lexer", tests); ("spans", span_tests) ]
