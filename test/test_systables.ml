(* Virtual system-table tests: live data through plain SELECT, the
   ANALYZE ARCHIVE statement cross-checked against the Retro layer's
   own accounting, RQL retrospective meta-queries over sys_snapshots,
   and the read-only guards. *)

module R = Storage.Record
module E = Sqldb.Engine

let value = Alcotest.testable R.pp_value R.equal_value
let row = Alcotest.(list value)

let rows_of (res : E.result) = List.map Array.to_list res.E.rows

let q db sql = rows_of (E.exec db sql)

let int_of = function R.Int i -> i | v -> Alcotest.failf "expected int, got %s" (R.value_to_string v)

(* A history with three snapshots and update traffic in between. *)
let snapshot_ctx () =
  let ctx = Rql.create () in
  let e sql = ignore (E.exec ctx.Rql.data sql) in
  e "CREATE TABLE t (a INTEGER, b TEXT)";
  e "INSERT INTO t VALUES (1,'x'), (2,'y'), (3,'z')";
  ignore (Rql.declare_snapshot ctx);
  e "UPDATE t SET b = 'xx' WHERE a = 1";
  ignore (Rql.declare_snapshot ctx);
  e "INSERT INTO t VALUES (4,'w')";
  e "DELETE FROM t WHERE a = 2";
  ignore (Rql.declare_snapshot ctx);
  ctx

let metrics =
  [ Alcotest.test_case "sys_metrics returns live counter values" `Quick (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE m (x INTEGER)");
        ignore (E.exec db "INSERT INTO m VALUES (1), (2)");
        let before =
          match q db "SELECT value FROM sys_metrics WHERE name = 'sql.statements'" with
          | [ [ v ] ] -> int_of v
          | r -> Alcotest.failf "expected one row, got %d" (List.length r)
        in
        Alcotest.(check bool) "statements counted" true (before >= 3);
        ignore (E.exec db "SELECT 1");
        let after =
          match q db "SELECT value FROM sys_metrics WHERE name = 'sql.statements'" with
          | [ [ v ] ] -> int_of v
          | _ -> Alcotest.fail "expected one row"
        in
        (* the SELECT 1 plus the first sys_metrics read happened in between *)
        Alcotest.(check bool) "value is live" true (after >= before + 2);
        Alcotest.(check (list row)) "kind column"
          [ [ R.Text "counter" ] ]
          (q db "SELECT kind FROM sys_metrics WHERE name = 'sql.statements'"));
    Alcotest.test_case "exec_rows counts a SELECT like exec" `Quick (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE er (x INTEGER)");
        ignore (E.exec db "INSERT INTO er VALUES (1), (2), (3)");
        let statements () =
          match E.query db "SELECT value FROM sys_metrics WHERE name = 'sql.statements'" with
          | [ [| v |] ] -> int_of v
          | _ -> Alcotest.fail "expected one row"
        in
        let calls sql =
          q db
            (Printf.sprintf "SELECT calls, rows FROM sys_statements WHERE query = '%s'"
               (Sqldb.Fingerprint.normalize sql))
        in
        List.iter
          (fun (how, run, sql) ->
            let before = statements () in
            let n = ref 0 in
            run sql (fun () -> incr n);
            (* the probe reading [before] counts too *)
            Alcotest.(check int) (how ^ ": sql.statements") (before + 2) (statements ());
            Alcotest.(check int) (how ^ ": rows delivered") 2 !n;
            Alcotest.(check (list row)) (how ^ ": sys_statements")
              [ [ R.Int 1; R.Int 2 ] ] (calls sql))
          [ ("exec", (fun sql k -> List.iter (fun _ -> k ()) (E.query db sql)),
             "SELECT x FROM er WHERE x > 1");
            ("exec_rows", (fun sql k -> E.exec_rows db sql ~f:(fun _ _ -> k ())),
             "SELECT x + 0 FROM er WHERE x < 3") ]);
    Alcotest.test_case "sys_histograms reports ordered quantiles" `Quick (fun () ->
        let db = E.create () in
        for i = 1 to 10 do
          ignore (E.exec db (Printf.sprintf "SELECT %d" i))
        done;
        match
          q db
            "SELECT count, p50, p95, p99, min, max FROM sys_histograms WHERE name = \
             'sql.stmt_latency'"
        with
        | [ [ c; p50; p95; p99; mn; mx ] ] ->
          let f = function
            | R.Real x -> x
            | R.Int i -> float_of_int i
            | v -> Alcotest.failf "expected number, got %s" (R.value_to_string v)
          in
          Alcotest.(check bool) "count positive" true (int_of c >= 10);
          Alcotest.(check bool) "quantiles ordered" true (f p50 <= f p95 && f p95 <= f p99);
          Alcotest.(check bool) "min <= max" true (f mn <= f mx)
        | r -> Alcotest.failf "expected one histogram row, got %d" (List.length r));
    Alcotest.test_case "sys_tables reports heap and index footprints" `Quick (fun () ->
        let db = E.create () in
        ignore (E.exec db "CREATE TABLE ft (a INTEGER, b TEXT)");
        ignore (E.exec db "CREATE INDEX ft_a ON ft (a)");
        ignore (E.exec db "INSERT INTO ft VALUES (1,'x'), (2,'y'), (3,'z')");
        Alcotest.(check (list row)) "table row"
          [ [ R.Text "table"; R.Int 3 ] ]
          (q db "SELECT kind, rows FROM sys_tables WHERE name = 'ft'");
        (match q db "SELECT rows, pages FROM sys_tables WHERE name = 'ft_a'" with
        | [ [ r; p ] ] ->
          Alcotest.(check int) "index entries" 3 (int_of r);
          Alcotest.(check bool) "index pages" true (int_of p >= 1)
        | r -> Alcotest.failf "expected index row, got %d rows" (List.length r)));
    Alcotest.test_case "sys_spans exposes the trace ring" `Quick (fun () ->
        let db = E.create () in
        Obs.Trace.clear ();
        Obs.Trace.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Obs.Trace.set_enabled false)
          (fun () ->
            ignore (E.exec db "SELECT 1");
            match q db "SELECT COUNT(*) FROM sys_spans WHERE name = 'sql.stmt'" with
            | [ [ n ] ] -> Alcotest.(check bool) "stmt spans recorded" true (int_of n >= 1)
            | _ -> Alcotest.fail "expected one count row"));
    Alcotest.test_case "sys_timeseries surfaces ring samples" `Quick (fun () ->
        let db = E.create () in
        Obs.Timeseries.clear ();
        Obs.Timeseries.set_interval 1;
        Fun.protect
          ~finally:(fun () -> Obs.Timeseries.set_interval 0)
          (fun () ->
            ignore (E.exec db "SELECT 1");
            ignore (E.exec db "SELECT 2");
            match
              q db "SELECT COUNT(*) FROM sys_timeseries WHERE name = 'sql.statements'"
            with
            | [ [ n ] ] -> Alcotest.(check bool) "samples present" true (int_of n >= 2)
            | _ -> Alcotest.fail "expected one count row")) ]

let snapshots =
  [ Alcotest.test_case "sys_snapshots matches the Retro accounting" `Quick (fun () ->
        let ctx = snapshot_ctx () in
        let db = ctx.Rql.data in
        let retro = Sqldb.Db.retro_exn db in
        (match q db "SELECT COUNT(*) FROM sys_snapshots" with
        | [ [ n ] ] ->
          Alcotest.(check int) "one row per snapshot" (Retro.snapshot_count retro) (int_of n)
        | _ -> Alcotest.fail "expected one count row");
        (* every mapping belongs to exactly one snapshot's delta, and
           every archived pre-state is exactly one Pagelog page *)
        (match
           q db "SELECT SUM(delta_entries), SUM(delta_bytes), SUM(delta_pages) FROM sys_snapshots"
         with
        | [ [ entries; bytes; pages ] ] ->
          Alcotest.(check int) "sum(delta_entries) = maplog length"
            (Retro.maplog_length retro) (int_of entries);
          Alcotest.(check int) "sum(delta_bytes) = pagelog bytes"
            (Retro.pagelog_size_bytes retro) (int_of bytes);
          Alcotest.(check bool) "delta_pages <= delta_entries" true
            (int_of pages <= int_of entries)
        | _ -> Alcotest.fail "expected one sum row");
        (* after an AS OF read, that snapshot's SPT is flagged current *)
        ignore (E.exec db "SELECT AS OF 2 COUNT(*) FROM t");
        Alcotest.(check (list row)) "spt_cached flags snapshot 2"
          [ [ R.Int 2 ] ]
          (q db "SELECT snap_id FROM sys_snapshots WHERE spt_cached = 1"));
    Alcotest.test_case "ANALYZE ARCHIVE agrees with the layer it reports on" `Quick (fun () ->
        let ctx = snapshot_ctx () in
        let db = ctx.Rql.data in
        let retro = Sqldb.Db.retro_exn db in
        let a = Retro.analyze retro in
        Alcotest.(check int) "snapshot count"
          (Retro.snapshot_count retro)
          (Array.length a.Retro.an_snapshots);
        Alcotest.(check int) "maplog entries" (Retro.maplog_length retro) a.Retro.an_maplog_entries;
        Alcotest.(check int) "pagelog bytes"
          (Retro.pagelog_size_bytes retro) a.Retro.an_pagelog_bytes;
        let sum f = Array.fold_left (fun acc si -> acc + f si) 0 a.Retro.an_snapshots in
        Alcotest.(check int) "per-snapshot deltas partition the maplog"
          a.Retro.an_maplog_entries
          (sum (fun si -> si.Retro.si_delta_entries));
        Alcotest.(check int) "per-snapshot bytes partition the pagelog"
          a.Retro.an_pagelog_bytes
          (sum (fun si -> si.Retro.si_delta_bytes));
        Alcotest.(check bool) "chain stats consistent" true
          (a.Retro.an_chain_max >= 1
          && a.Retro.an_chain_mean >= 1.
          && float_of_int a.Retro.an_chain_max >= a.Retro.an_chain_mean);
        (* the SQL statement renders the same analysis *)
        let res = E.exec db "ANALYZE ARCHIVE" in
        Alcotest.(check (array string)) "columns" [| "analyze" |] res.E.columns;
        (match res.E.rows with
        | first :: _ ->
          Alcotest.(check row) "headline row"
            [ R.Text (Printf.sprintf "snapshots: %d" (Retro.snapshot_count retro)) ]
            (Array.to_list first)
        | [] -> Alcotest.fail "ANALYZE ARCHIVE returned no rows"));
    Alcotest.test_case "ANALYZE ARCHIVE requires a snapshot system" `Quick (fun () ->
        let db = E.create ~snapshots:false () in
        Alcotest.(check bool) "raises" true
          (try
             ignore (E.exec db "ANALYZE ARCHIVE");
             false
           with E.Error _ -> true));
    Alcotest.test_case "sys_cache reports the snapshot cache" `Quick (fun () ->
        let ctx = snapshot_ctx () in
        let db = ctx.Rql.data in
        ignore (E.exec db "SELECT AS OF 1 COUNT(*) FROM t");
        ignore (E.exec db "SELECT AS OF 1 COUNT(*) FROM t");
        match q db "SELECT name, capacity, hits, misses FROM sys_cache" with
        | [ [ name; cap; hits; misses ] ] ->
          Alcotest.(check value) "instance name" (R.Text "retro.snap_cache") name;
          Alcotest.(check bool) "capacity positive" true (int_of cap > 0);
          Alcotest.(check bool) "traffic recorded" true (int_of hits + int_of misses > 0)
        | r -> Alcotest.failf "expected one cache row, got %d" (List.length r)) ]

let rql_udfs =
  [ Alcotest.test_case "AggregateDataInVariable over sys_snapshots" `Quick (fun () ->
        let ctx = snapshot_ctx () in
        (* retrospective meta-query: per snapshot, read that snapshot's
           own delta size from the introspection table, then fold *)
        ignore
          (Rql.aggregate_data_in_variable ctx ~qs:"SELECT snap_id FROM SnapIds"
             ~qq:"SELECT delta_pages FROM sys_snapshots WHERE snap_id = current_snapshot()"
             ~table:"V" ~fn:"sum");
        let direct =
          match q ctx.Rql.data "SELECT SUM(delta_pages) FROM sys_snapshots" with
          | [ [ v ] ] -> int_of v
          | _ -> Alcotest.fail "expected one sum row"
        in
        Alcotest.(check bool) "archive saw traffic" true (direct > 0);
        Alcotest.(check (list row)) "UDF total = direct total"
          [ [ R.Int direct ] ]
          (q ctx.Rql.meta "SELECT * FROM V")) ]

let guards =
  [ Alcotest.test_case "system tables reject DML" `Quick (fun () ->
        let db = E.create () in
        let rejects sql =
          Alcotest.(check bool) sql true
            (try
               ignore (E.exec db sql);
               false
             with E.Error _ -> true)
        in
        rejects "INSERT INTO sys_metrics VALUES ('x', 'counter', 1)";
        rejects "DELETE FROM sys_metrics";
        rejects "UPDATE sys_metrics SET value = 0";
        rejects "CREATE TABLE sys_custom (a INTEGER)";
        rejects "CREATE INDEX sm ON sys_metrics (name)");
    Alcotest.test_case "sys_ names are listed for discovery" `Quick (fun () ->
        let names = Sqldb.Systables.names () in
        List.iter
          (fun n -> Alcotest.(check bool) n true (List.mem n names))
          [ "sys_metrics"; "sys_histograms"; "sys_spans"; "sys_snapshots"; "sys_cache";
            "sys_tables"; "sys_timeseries" ]) ]

(* --- statement normalization ---------------------------------------------- *)

module F = Sqldb.Fingerprint

(* The fold collapse as a fixpoint: the four rewrites applied over the
   whole token list, again until nothing changes (quadratic in the
   nesting depth).  [F.collapse_folds] must reach the same tokens in one
   pass. *)
let collapse_fixpoint (toks : string list) : string list =
  let changed = ref true in
  let cur = ref toks in
  let const_call rest =
    let rec args = function
      | "?" :: ")" :: tl -> Some tl
      | "?" :: "," :: tl -> args tl
      | _ -> None
    in
    match rest with "(" :: tl -> args tl | _ -> None
  in
  while !changed do
    changed := false;
    let rec rw prev toks =
      match toks with
      | [] -> []
      | name :: rest when Sqldb.Func.find name <> None && const_call rest <> None ->
        changed := true;
        rw prev ("?" :: Option.get (const_call rest))
      | "(" :: "?" :: ")" :: rest when not (F.ends_value prev) ->
        changed := true;
        rw prev ("?" :: rest)
      | "?" :: op :: "?" :: rest when F.prec op > 0 ->
        let nextp = match rest with nx :: _ -> F.prec nx | [] -> 0 in
        if F.prec prev >= F.prec op || nextp > F.prec op || (prev = "between" && op = "and")
        then "?" :: rw "?" (op :: "?" :: rest)
        else begin
          changed := true;
          rw prev ("?" :: rest)
        end
      | ("-" | "not") :: "?" :: rest
        when (not (F.ends_value prev))
             && F.prec (Option.value (List.nth_opt rest 0) ~default:"") = 0 ->
        changed := true;
        rw prev ("?" :: rest)
      | t :: rest -> t :: rw t rest
    in
    cur := rw "" !cur
  done;
  !cur

let tokens sql = List.filter_map F.token_norm (Sqldb.Lexer.tokenize sql)

(* Nested expressions over constants, columns and [?]: arithmetic,
   comparisons, AND/OR, ||, unary minus and NOT, parentheses, BETWEEN
   and calls of builtin and unknown functions. *)
let gen_expr =
  QCheck.Gen.(
    fix (fun self n ->
           let leaf = oneofl [ "1"; "2.5"; "'s'"; "?"; "a"; "b"; "NULL" ] in
           if n <= 0 then leaf
           else
             let sub = self (n / 2) in
             frequency
               [ (2, leaf);
                 ( 4,
                   map3
                     (fun l op r -> Printf.sprintf "%s %s %s" l op r)
                     sub
                     (oneofl [ "+"; "-"; "*"; "/"; "%"; "||"; "="; "<>"; "<"; ">="; "AND"; "OR" ])
                     sub );
                 (2, map (Printf.sprintf "(%s)") sub);
                 (2, map (Printf.sprintf "-%s") sub);
                 (1, map (Printf.sprintf "NOT %s") sub);
                 (1, map3 (Printf.sprintf "%s BETWEEN %s AND %s") sub sub sub);
                 (1, map (Printf.sprintf "abs(%s)") sub);
                 (1, map2 (Printf.sprintf "coalesce(%s, %s)") sub sub);
                 (1, map (Printf.sprintf "f(%s)") sub) ]))

let prop_collapse =
  QCheck.Test.make ~name:"one-pass fold collapse equals the fixpoint" ~count:500
    (QCheck.make ~print:Fun.id
       QCheck.Gen.(
         let e = sized_size (int_bound 12) gen_expr in
         map2 (Printf.sprintf "SELECT %s FROM t WHERE %s") e e))
    (fun sql ->
      let toks = tokens sql in
      F.collapse_folds toks = collapse_fixpoint toks)

let normalization =
  [ Alcotest.test_case "the fold collapse agrees with the fixpoint" `Quick (fun () ->
        List.iter
          (fun sql ->
            Alcotest.(check (list string)) sql (collapse_fixpoint (tokens sql))
              (F.collapse_folds (tokens sql)))
          [ "SELECT ((1 + 2) * (3 - a)) FROM t";
            "SELECT 1 + 2 * 3 || a, - - 4, NOT NOT 1 FROM t";
            "SELECT a FROM t WHERE a BETWEEN 1 + 1 AND (5) AND b = -(2)";
            "SELECT abs(coalesce(1, (2)), 3) + f((4)) FROM t WHERE a IN (1, (2), 3 + 4)" ]);
    QCheck_alcotest.to_alcotest prop_collapse;
    Alcotest.test_case "20 000 nested parentheses normalize in linear time" `Quick (fun () ->
        let d = 20_000 in
        let sql = "SELECT " ^ String.make d '(' ^ "1" ^ String.make d ')' ^ " FROM t" in
        let t0 = Unix.gettimeofday () in
        let norm = F.normalize sql in
        let dt = Unix.gettimeofday () -. t0 in
        Alcotest.(check string) "collapsed" "select ? from t" norm;
        Alcotest.(check bool) (Printf.sprintf "%.2f s, under 2 s" dt) true (dt < 2.)) ]

let () =
  Alcotest.run "systables"
    [ ("metrics", metrics); ("snapshots", snapshots); ("rql-udfs", rql_udfs);
      ("guards", guards); ("normalize", normalization) ]
