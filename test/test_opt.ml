(* Optimizer (lib/sql/absint + lib/sql/opt) tests.

   The central property is *result identity*: for any statement, running
   with PRAGMA optimize=off and optimize=on must produce byte-identical
   results — constant folding replays the real evaluator at plan time,
   so NULL tri-valued logic, division by folded zero, text coercions and
   -0.0 all survive.  A QCheck generator drives random expressions
   through both modes, a fixed matrix covers plan shapes (joins, GROUP
   BY, HAVING, UNION, LIMIT, subqueries), and unit tests pin down each
   W2xx diagnostic, the EXPLAIN annotations, the delta-safety verdicts
   for the four RQL mechanisms' Qq shapes, and folds hoisted out of the
   RQL loop.  Every SELECT a statement plans (subqueries, INSERT ...
   SELECT, CREATE TABLE ... AS SELECT, a UNION member with its own AS
   OF) goes through the optimizer, so the matrix covers those too. *)

module R = Storage.Record
module E = Sqldb.Engine
module D = Sqldb.Diag
module M = Obs.Metrics

let value = Alcotest.testable R.pp_value R.equal_value
let row = Alcotest.(list value)

let rows_of res = List.map Array.to_list res.E.rows

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec at i = i + nl <= hl && (String.sub hay i nl = needle || at (i + 1)) in
  at 0

(* Fixture: typed columns (INTEGER / TEXT / REAL) with NULLs in every
   column, so folded identities meet every runtime type; an index on a
   for bound-tightening; a second table for joins. *)
let fresh ?(snapshots = false) () =
  let db = E.create ~snapshots () in
  let e sql = ignore (E.exec db sql) in
  e "CREATE TABLE t (a INTEGER, b TEXT, c REAL)";
  e "CREATE INDEX ta ON t (a)";
  e "INSERT INTO t VALUES (1, 'x', 1.5)";
  e "INSERT INTO t VALUES (2, 'y', -0.0)";
  e "INSERT INTO t VALUES (3, '2.5', 0.0)";
  e "INSERT INTO t VALUES (NULL, NULL, NULL)";
  e "INSERT INTO t VALUES (-4, '', 4.25)";
  e "CREATE TABLE u (a INTEGER, d TEXT)";
  e "INSERT INTO u VALUES (1, 'one')";
  e "INSERT INTO u VALUES (3, 'three')";
  e "INSERT INTO u VALUES (NULL, 'none')";
  db

let set_opt db on =
  ignore (E.exec db (if on then "PRAGMA optimize=on" else "PRAGMA optimize=off"))

(* Run [sql] (one statement, or a script whose last statement's rows
   count) under both optimizer settings; both must agree exactly (same
   rows in the same order, or the same error). *)
let run_both db sql =
  let attempt () =
    try Ok (rows_of (E.exec_script db sql)) with E.Error m -> Error m
  in
  set_opt db false;
  let off = attempt () in
  set_opt db true;
  let on_ = attempt () in
  (off, on_)

let check_identical db sql =
  let off, on_ = run_both db sql in
  match (off, on_) with
  | Ok o, Ok n -> Alcotest.(check (list row)) sql o n
  | Error o, Error n -> Alcotest.(check string) sql o n
  | Ok _, Error m -> Alcotest.failf "%s: optimized errored (%s), unoptimized ran" sql m
  | Error m, Ok _ -> Alcotest.failf "%s: unoptimized errored (%s), optimized ran" sql m

(* --- random expression generator -------------------------------------- *)

(* Expressions are generated directly as SQL text from a small grammar.
   Literals deliberately include the identity/absorbing elements (0, 1,
   0.0, 1.0, NULL, '') so the strength-reduction and null-propagation
   paths fire often. *)
let gen_expr : string QCheck.Gen.t =
  let open QCheck.Gen in
  let lit =
    oneofl
      [ "0"; "1"; "2"; "-1"; "7"; "0.0"; "1.0"; "2.5"; "-0.0"; "NULL"; "''"; "'x'";
        "'2.5'"; "'abc'" ]
  in
  let col = oneofl [ "a"; "b"; "c" ] in
  let leaf = oneof [ lit; lit; col ] in
  let bin = oneofl [ "+"; "-"; "*"; "/"; "%"; "="; "<>"; "<"; "<="; ">"; ">="; "AND"; "OR"; "||" ] in
  let fn = oneofl [ "abs"; "length"; "lower"; "upper"; "typeof"; "coalesce" ] in
  fix
    (fun self n ->
      if n = 0 then leaf
      else
        let sub = self (n / 2) in
        frequency
          [ (3, map2 (fun op (l, r) -> Printf.sprintf "(%s %s %s)" l op r) bin (pair sub sub));
            (1, map (fun e -> Printf.sprintf "(NOT %s)" e) sub);
            (1, map (fun e -> Printf.sprintf "(- %s)" e) sub);
            (1, map (fun e -> Printf.sprintf "(%s IS NULL)" e) sub);
            (1, map2 (fun e (l, h) -> Printf.sprintf "(%s BETWEEN %s AND %s)" e l h) sub (pair sub sub));
            (1, map2 (fun e (x, y) -> Printf.sprintf "(%s IN (%s, %s))" e x y) sub (pair sub sub));
            (1, map (fun e -> Printf.sprintf "(%s LIKE '%%x%%')" e) sub);
            (1, map2 (fun c (v, e) -> Printf.sprintf "(CASE WHEN %s THEN %s ELSE %s END)" c v e)
                 sub (pair sub sub));
            (1, map2 (fun ty e -> Printf.sprintf "(CAST(%s AS %s))" e ty)
                 (oneofl [ "INTEGER"; "REAL"; "TEXT" ]) sub);
            (1, map2 (fun f e -> Printf.sprintf "%s(%s)" f e) fn sub);
            (2, leaf) ])
    4

let arb_expr = QCheck.make gen_expr ~print:(fun s -> s)

let differential =
  let prop_of mk =
    QCheck.Test.make ~count:300 ~name:"on/off identical" arb_expr (fun e ->
        let db = fresh () in
        let sql = mk e in
        let off, on_ = run_both db sql in
        if off <> on_ then QCheck.Test.fail_reportf "diverged on %s" sql;
        true)
  in
  [ QCheck_alcotest.to_alcotest (prop_of (fun e -> "SELECT " ^ e ^ " FROM t"));
    QCheck_alcotest.to_alcotest
      (prop_of (fun e -> "SELECT a FROM t WHERE " ^ e ^ " ORDER BY a")) ]

(* --- fixed statement matrix -------------------------------------------- *)

let matrix_queries =
  [ "SELECT 1 + 2 * 3";
    "SELECT 1 / 0";
    "SELECT 1.0 / 0";
    "SELECT 1 % 0";
    "SELECT NULL AND 0";
    "SELECT NULL AND 1";
    "SELECT NULL OR 1";
    "SELECT NULL OR 0";
    "SELECT NOT NULL";
    "SELECT 'a' || NULL";
    "SELECT a + 0 FROM t";
    "SELECT c + 0 FROM t";
    "SELECT c - 0, c * 1, c / 1 FROM t";
    "SELECT - - a, - - c FROM t";
    "SELECT NOT NOT (a > 1) FROM t";
    "SELECT b + 0 FROM t";
    "SELECT a FROM t WHERE 1 = 2";
    "SELECT a FROM t WHERE 1 = 1 ORDER BY a";
    "SELECT a FROM t WHERE NULL";
    "SELECT a FROM t WHERE a > 1 AND a > 2 ORDER BY a";
    "SELECT a FROM t WHERE a > 5 AND a < 3";
    "SELECT a FROM t WHERE a >= 2 AND a <= 2";
    "SELECT a FROM t WHERE a = 2 AND a > 0";
    "SELECT COUNT(*) FROM t WHERE 1 = 2";
    "SELECT COUNT(*), SUM(a), MIN(c), MAX(b) FROM t";
    "SELECT b, COUNT(*) FROM t WHERE 1 = 1 GROUP BY b HAVING 1 = 1 ORDER BY b";
    "SELECT b, COUNT(*) FROM t GROUP BY b HAVING COUNT(*) > 1 + 0 ORDER BY b";
    "SELECT t.a, u.d FROM t, u WHERE t.a = u.a AND 1 = 1 ORDER BY t.a";
    "SELECT t.a, u.d FROM t, u WHERE t.a = u.a AND 1 = 2";
    "SELECT t.a, u.d FROM t LEFT JOIN u ON t.a = u.a WHERE 1 = 1 ORDER BY t.a";
    "SELECT a FROM t WHERE a IN (1, 2 + 1) ORDER BY a";
    "SELECT a FROM t WHERE a IN (SELECT a FROM u WHERE 1 = 1) ORDER BY a";
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE u.a = t.a) ORDER BY a";
    "SELECT (SELECT MAX(a) FROM u) + 0 FROM t";
    "SELECT a FROM t WHERE a IN (SELECT a FROM u WHERE a = 1 + 1) ORDER BY a";
    "SELECT a FROM t WHERE a IN (SELECT a FROM u WHERE a = 1 + 2 AND 1 = 1) ORDER BY a";
    "SELECT a FROM t WHERE EXISTS (SELECT 1 FROM u WHERE a > 0 + 1) ORDER BY a";
    "SELECT a FROM t WHERE NOT EXISTS (SELECT 1 FROM u WHERE 1 = 2) ORDER BY a";
    "SELECT a, (SELECT MAX(d) FROM u WHERE a < 2 * 2) FROM t ORDER BY a";
    "DROP TABLE IF EXISTS g; CREATE TABLE g (x INTEGER); \
     INSERT INTO g SELECT a + (1 + 1) FROM t WHERE 1 = 1; SELECT x FROM g ORDER BY x";
    "DROP TABLE IF EXISTS g2; \
     CREATE TABLE g2 AS SELECT a * (1 + 1), b || '' FROM t WHERE a > 0 + 1; \
     SELECT * FROM g2 ORDER BY 1";
    "SELECT a FROM t UNION SELECT a FROM u ORDER BY a";
    "SELECT a FROM t WHERE 1 = 2 UNION SELECT a FROM u ORDER BY a";
    "SELECT DISTINCT typeof(a) FROM t ORDER BY 1";
    "SELECT a FROM t ORDER BY a LIMIT 2 + 1 OFFSET 1 * 1";
    "SELECT CASE WHEN 1 = 2 THEN 'dead' WHEN a > 1 THEN 'big' ELSE 'small' END FROM t";
    "SELECT CASE WHEN 1 = 1 THEN b ELSE upper(b) END FROM t" ]

(* UNION members with their own AS OF, over a database whose snapshot 1
   differs from its current state. *)
let as_of_queries =
  [ "SELECT a FROM t WHERE a > 1 UNION SELECT AS OF 1 a FROM t WHERE a > 0 + 1 ORDER BY a";
    "SELECT a FROM t UNION ALL SELECT AS OF 1 a * (2 - 1) FROM t WHERE 1 = 1 ORDER BY a";
    "SELECT a FROM u UNION SELECT AS OF 1 a FROM t WHERE a > 5 AND a < 3 ORDER BY a" ]

let matrix =
  [ Alcotest.test_case "fixed matrix on/off identical" `Quick (fun () ->
        let db = fresh () in
        List.iter (check_identical db) matrix_queries);
    Alcotest.test_case "AS OF UNION members on/off identical" `Quick (fun () ->
        let db = fresh ~snapshots:true () in
        ignore (E.exec db "COMMIT WITH SNAPSHOT");
        ignore (E.exec db "UPDATE t SET a = a + 10 WHERE a = 3");
        List.iter (check_identical db) as_of_queries) ]

(* --- diagnostics ------------------------------------------------------- *)

let codes db sql =
  List.filter (fun c -> c.[0] = 'W' && c.[1] = '2') (List.map (fun d -> d.D.code) (E.analyze db sql))

let case name sql expected =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check (list string)) sql expected (codes (fresh ()) sql))

let diagnostics =
  [ case "W201 always-false WHERE" "SELECT a FROM t WHERE 1 = 2" [ "W201" ];
    case "W201 constant NULL WHERE" "SELECT a FROM t WHERE NULL" [ "W201" ];
    case "W202 always-true WHERE" "SELECT a FROM t WHERE 1 = 1" [ "W202" ];
    case "W202 always-true HAVING" "SELECT b, COUNT(*) FROM t GROUP BY b HAVING 1 = 1"
      [ "W202" ];
    case "W203 contradictory bounds" "SELECT b FROM t WHERE b > 'x' AND b < 'a'" [ "W203" ];
    (* the weaker conjunct is both an implied filter (W202) and a
       redundant index bound (W204) *)
    case "W204 redundant index bound" "SELECT a FROM t WHERE a > 1 AND a > 2"
      [ "W202"; "W204" ];
    case "clean statement stays clean" "SELECT a FROM t WHERE a > 1" [];
    Alcotest.test_case "optimize=off silences W2xx" `Quick (fun () ->
        let db = fresh () in
        set_opt db false;
        Alcotest.(check (list string)) "no W2xx" [] (codes db "SELECT a FROM t WHERE 1 = 2")) ]

(* --- EXPLAIN annotations ----------------------------------------------- *)

let explain_lines db sql =
  List.filter_map
    (function [ R.Text l ] -> Some l | _ -> None)
    (rows_of (E.exec db ("EXPLAIN " ^ sql)))

let has_line db sql needle =
  List.exists (fun l -> contains l needle) (explain_lines db sql)

let explain =
  [ Alcotest.test_case "folded counts surface in OPT trailer" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check bool) "folded" true (has_line db "SELECT 1 + 2 * 3" "OPT (folded=");
        Alcotest.(check bool) "nothing folded, no trailer" false (has_line db "SELECT 7" "OPT ("));
    Alcotest.test_case "always-false WHERE renders an empty scan" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check bool) "empty scan" true
          (has_line db "SELECT a FROM t WHERE 1 = 2" "EMPTY SCAN"));
    Alcotest.test_case "pruned predicate annotates the scan line" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check bool) "pruned" true
          (has_line db "SELECT a FROM t WHERE a > 0 AND 1 = 1" "pruned"));
    Alcotest.test_case "delta-safe aggregate says yes" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check bool) "yes" true
          (has_line db "SELECT b, COUNT(*) FROM t GROUP BY b" "DELTA-SAFE: yes"));
    Alcotest.test_case "LIMIT defeats delta-safety with a reason" `Quick (fun () ->
        let db = fresh () in
        Alcotest.(check bool) "no (LIMIT)" true
          (has_line db "SELECT COUNT(*) FROM t LIMIT 1" "DELTA-SAFE: no (LIMIT/OFFSET)"));
    Alcotest.test_case "optimize=off renders the raw plan" `Quick (fun () ->
        let db = fresh () in
        set_opt db false;
        Alcotest.(check bool) "no trailer" false
          (has_line db "SELECT 1 + 2 * 3" "DELTA-SAFE"));
    Alcotest.test_case "EXPLAIN ANALYZE carries the annotations too" `Quick (fun () ->
        let db = fresh () in
        let res = E.exec db "EXPLAIN ANALYZE SELECT b, COUNT(*) FROM t GROUP BY b" in
        let lines = List.filter_map (function [ R.Text l ] -> Some l | _ -> None) (rows_of res) in
        Alcotest.(check bool) "delta line" true
          (List.exists (fun l -> contains l "DELTA-SAFE: yes") lines)) ]

(* --- delta-safety verdicts for the four RQL mechanisms' Qq shapes ------ *)

let delta_line db sql =
  match List.rev (explain_lines db sql) with
  | last :: _ -> last
  | [] -> Alcotest.fail "empty EXPLAIN"

let delta_check name sql expect =
  Alcotest.test_case name `Quick (fun () ->
      Alcotest.(check bool) sql true (contains (delta_line (fresh ()) sql) expect))

let delta_safety =
  [ (* CollateData / CollateDataIntoIntervals Qq: plain row collection,
       in scan order *)
    delta_check "CollateData shape is delta-safe" "SELECT a, b FROM t" "DELTA-SAFE: yes";
    delta_check "filtered row Qq is delta-safe" "SELECT a, c FROM t WHERE c > 1.5"
      "DELTA-SAFE: yes";
    delta_check "row Qq with ORDER BY is rejected" "SELECT a, b FROM t ORDER BY b"
      "DELTA-SAFE: no (ORDER BY)";
    delta_check "row Qq with LIMIT is rejected" "SELECT a, b FROM t LIMIT 2"
      "DELTA-SAFE: no (LIMIT/OFFSET)";
    delta_check "row Qq with DISTINCT is rejected" "SELECT DISTINCT b FROM t"
      "DELTA-SAFE: no (DISTINCT)";
    delta_check "row hash join is delta-safe" "SELECT t.b, u.d FROM t, u WHERE t.a = u.a"
      "DELTA-SAFE: yes";
    (* AggregateDataInVariable Qq: single monoid aggregate *)
    delta_check "AggregateDataInVariable shape is delta-safe" "SELECT COUNT(*) FROM t"
      "DELTA-SAFE: yes";
    (* AggregateDataInTable Qq: grouped monoid aggregates *)
    delta_check "AggregateDataInTable shape is delta-safe"
      "SELECT b, SUM(a), AVG(c) FROM t GROUP BY b" "DELTA-SAFE: yes";
    delta_check "DISTINCT aggregate is rejected" "SELECT COUNT(DISTINCT a) FROM t"
      "DELTA-SAFE: no (DISTINCT aggregate";
    delta_check "DISTINCT is rejected" "SELECT DISTINCT a FROM t" "DELTA-SAFE: no (";
    delta_check "UNION is rejected" "SELECT a FROM t UNION SELECT a FROM u"
      "DELTA-SAFE: no (compound (UNION))";
    delta_check "subquery is rejected" "SELECT SUM(a) FROM t WHERE a IN (SELECT a FROM u)"
      "DELTA-SAFE: no (subquery)";
    (* Joins: a hash join over heap tables keeps its inner pages and
       covering index; every other kind names itself. *)
    delta_check "hash join is delta-safe" "SELECT COUNT(*) FROM t, u WHERE t.a = u.a"
      "DELTA-SAFE: yes";
    delta_check "grouped hash join with a residual is delta-safe"
      "SELECT u.d, SUM(t.c) FROM t, u WHERE t.a = u.a AND t.c > u.a GROUP BY u.d"
      "DELTA-SAFE: yes";
    delta_check "LEFT JOIN is rejected" "SELECT COUNT(*) FROM t LEFT JOIN u ON t.a = u.a"
      "DELTA-SAFE: no (left join)";
    delta_check "nested-loop join is rejected" "SELECT COUNT(*) FROM t, u WHERE t.a < u.a"
      "DELTA-SAFE: no (nested-loop join)";
    (* t.a is indexed: the join probes it *)
    delta_check "index probe join is rejected" "SELECT COUNT(*) FROM u, t WHERE u.a = t.a"
      "DELTA-SAFE: no (index probe join)";
    delta_check "index search is rejected" "SELECT COUNT(*) FROM t WHERE a = 2"
      "DELTA-SAFE: no (index search";
    delta_check "MIN, MAX and TOTAL are delta-safe" "SELECT MIN(a), MAX(c), TOTAL(a) FROM t"
      "DELTA-SAFE: yes";
    Alcotest.test_case "UDF call is rejected" `Quick (fun () ->
        let db = fresh () in
        E.register_fn db "myfn" (fun _ -> R.Int 1);
        Alcotest.(check bool) "reason names the UDF" true
          (contains (delta_line db "SELECT SUM(myfn(a)) FROM t") "DELTA-SAFE: no ("));
    Alcotest.test_case "sys_plans counts delta-safe cached plans" `Quick (fun () ->
        let db = fresh () in
        ignore (E.exec db "SELECT COUNT(*) FROM t");
        ignore (E.exec db "SELECT a FROM t ORDER BY a");
        let r = E.exec db "SELECT delta_safe FROM sys_plans" in
        Alcotest.(check (list row)) "one delta-safe plan" [ [ R.Int 1 ] ] (rows_of r)) ]

(* --- constant Qqs and the fold hoist ------------------------------------ *)

let c_folds = M.counter "sql.opt_folds"
let c_hoists = M.counter "sql.opt_invariant_hoists"

let invariance =
  [ Alcotest.test_case "constant Qq evaluates at every snapshot" `Quick (fun () ->
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        e "CREATE TABLE h (x INTEGER)";
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e "INSERT INTO h VALUES (1)";
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e "INSERT INTO h VALUES (2)";
        ignore (Rql.declare_snapshot ctx);
        let run =
          Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds" ~qq:"SELECT 1 + 1 AS two"
            ~table:"Result"
        in
        Alcotest.(check int) "iterations" 3 (List.length run.Rql.Iter_stats.iterations);
        Alcotest.(check (list row)) "rows" [ [ R.Int 2 ]; [ R.Int 2 ]; [ R.Int 2 ] ]
          (List.map Array.to_list (E.query ctx.Rql.meta "SELECT two FROM Result")));
    Alcotest.test_case "snapshot-dependent Qq is not hoisted" `Quick (fun () ->
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        e "CREATE TABLE h (x INTEGER)";
        e "INSERT INTO h VALUES (7)";
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e "INSERT INTO h VALUES (8)";
        ignore (Rql.declare_snapshot ctx);
        ignore
          (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
             ~qq:"SELECT COUNT(*) AS n FROM h" ~table:"Result");
        Alcotest.(check (list row)) "per-snapshot counts" [ [ R.Int 1 ]; [ R.Int 2 ] ]
          (List.map Array.to_list (E.query ctx.Rql.meta "SELECT n FROM Result ORDER BY n")));
    Alcotest.test_case "folds and hoists count into the registry" `Quick (fun () ->
        let db = fresh () in
        let f0 = M.Counter.get c_folds in
        ignore (E.exec db "SELECT 1 + 2 FROM t");
        Alcotest.(check bool) "folds advanced" true (M.Counter.get c_folds > f0);
        let ctx = Rql.create () in
        ignore (E.exec ctx.Rql.data "CREATE TABLE h (x INTEGER)");
        ignore (Rql.declare_snapshot ctx);
        let h0 = M.Counter.get c_hoists in
        ignore
          (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
             ~qq:"SELECT 2 * 2 AS four" ~table:"Result");
        Alcotest.(check bool) "hoists advanced" true (M.Counter.get c_hoists > h0));
    Alcotest.test_case "subqueries and INSERT ... SELECT are optimized" `Quick (fun () ->
        let db = fresh () in
        let folds sql =
          let f0 = M.Counter.get c_folds in
          ignore (E.exec db sql);
          M.Counter.get c_folds - f0
        in
        Alcotest.(check bool) "IN (SELECT ...) folds" true
          (folds "SELECT a FROM t WHERE a IN (SELECT a FROM u WHERE a = 1 + 1)" > 0);
        ignore (E.exec db "CREATE TABLE g (x INTEGER)");
        Alcotest.(check bool) "INSERT ... SELECT folds" true
          (folds "INSERT INTO g SELECT a + (1 + 1) FROM t WHERE 1 = 1" > 0)) ]

(* --- fold-aware fingerprints ------------------------------------------- *)

module F = Sqldb.Fingerprint

let same_fp a b = Alcotest.(check string) (a ^ " ~ " ^ b) (F.normalize a) (F.normalize b)

let diff_fp a b =
  Alcotest.(check bool)
    (a ^ " !~ " ^ b)
    false
    (String.equal (F.normalize a) (F.normalize b))

let fingerprints =
  [ Alcotest.test_case "folded arithmetic shares a fingerprint" `Quick (fun () ->
        same_fp "SELECT a FROM t WHERE a > 1 + 1" "SELECT a FROM t WHERE a > 2";
        same_fp "SELECT a FROM t WHERE a > (7)" "SELECT a FROM t WHERE a > 7";
        same_fp "SELECT 1 * 2 + a FROM t" "SELECT 2 + a FROM t";
        same_fp "SELECT a FROM t LIMIT 2 + 1" "SELECT a FROM t LIMIT 3";
        same_fp "SELECT a FROM t WHERE a = -1" "SELECT a FROM t WHERE a = 1");
    Alcotest.test_case "constant builtin calls fold like literals" `Quick (fun () ->
        same_fp "SELECT abs(-2) FROM t" "SELECT 2 FROM t";
        same_fp "SELECT coalesce(1, 2) FROM t" "SELECT 1 FROM t");
    Alcotest.test_case "operator precedence keeps distinct shapes apart" `Quick (fun () ->
        diff_fp "SELECT 1 + 2 * a FROM t" "SELECT 3 * a FROM t";
        diff_fp "SELECT a + 1 + 1 FROM t" "SELECT a + 2 FROM t";
        diff_fp "SELECT a - 1 FROM t" "SELECT a FROM t";
        (* the parser binds || tighter than *: 2 * 3 || a is 2 * (3 || a) *)
        diff_fp "SELECT 2 * 3 || a FROM t" "SELECT 6 || a FROM t";
        same_fp "SELECT a * 2 || 3 FROM t" "SELECT a * 23 FROM t";
        (* BETWEEN's AND is not the boolean operator *)
        diff_fp "SELECT a FROM t WHERE a BETWEEN 1 AND 5 AND b" "SELECT a FROM t WHERE a BETWEEN 1 AND b";
        same_fp "SELECT a FROM t WHERE a BETWEEN 1+1 AND 5" "SELECT a FROM t WHERE a BETWEEN 2 AND 5") ]

(* --- the escape hatch --------------------------------------------------- *)

let pragma =
  [ Alcotest.test_case "PRAGMA optimize reports and toggles" `Quick (fun () ->
        let db = fresh () in
        let state () =
          match rows_of (E.exec db "PRAGMA optimize") with
          | [ [ R.Text s ] ] -> s
          | _ -> Alcotest.fail "unexpected pragma shape"
        in
        Alcotest.(check string) "default on" "on" (state ());
        set_opt db false;
        Alcotest.(check string) "off" "off" (state ());
        set_opt db true;
        Alcotest.(check string) "back on" "on" (state ()));
    Alcotest.test_case "toggling resets the plan cache" `Quick (fun () ->
        let db = fresh () in
        let size () =
          match rows_of (E.exec db "SELECT size FROM sys_plans") with
          | [ [ R.Int n ] ] -> n
          | _ -> Alcotest.fail "unexpected sys_plans shape"
        in
        ignore (E.exec db "SELECT a FROM t");
        Alcotest.(check bool) "warm" true (size () >= 2);
        set_opt db false;
        (* only the size probe itself has been re-planned since the reset *)
        Alcotest.(check bool) "emptied" true (size () <= 1)) ]

let () =
  Alcotest.run "opt"
    [ ("differential", differential);
      ("matrix", matrix);
      ("diagnostics", diagnostics);
      ("explain", explain);
      ("delta-safety", delta_safety);
      ("invariance", invariance);
      ("fingerprints", fingerprints);
      ("pragma", pragma) ]
