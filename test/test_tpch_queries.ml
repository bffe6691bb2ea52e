(* TPC-H query tests: every query in Tpch.Tpch_queries runs on the
   engine; Q1 and Q6 are verified differentially against straightforward
   OCaml computations over the raw rows; and queries run AS OF past
   snapshots return the historical answers. *)

module R = Storage.Record
module E = Sqldb.Engine



let ctx_and_state =
  lazy
    (let ctx = Rql.create () in
     let st = Tpch.Dbgen.generate ctx.Rql.data ~sf:0.005 in
     (ctx, st))

let db () = (fst (Lazy.force ctx_and_state)).Rql.data

let veq a b =
  match (a, b) with
  | R.Real x, R.Real y -> Float.abs (x -. y) <= 1e-6 *. Float.max 1. (Float.abs x)
  | _ -> R.equal_value a b

let run_all =
  List.map
    (fun (id, sql) ->
      Alcotest.test_case (id ^ " runs") `Quick (fun () ->
          let res = E.exec (db ()) sql in
          Alcotest.(check bool) "has header" true (Array.length res.E.columns > 0);
          match id with
          | "Q1" ->
            (* at most |returnflag| x |linestatus| groups, all non-empty *)
            Alcotest.(check bool) "groups" true
              (List.length res.E.rows >= 1 && List.length res.E.rows <= 4)
          | "Q3" -> Alcotest.(check bool) "top-10" true (List.length res.E.rows <= 10)
          | "Q4" -> Alcotest.(check bool) "priorities" true (List.length res.E.rows <= 5)
          | "Q5" -> Alcotest.(check bool) "nations" true (List.length res.E.rows <= 25)
          | "Q6" | "Q14" | "Q19" -> Alcotest.(check int) "single row" 1 (List.length res.E.rows)
          | "Q10" -> Alcotest.(check bool) "top-20" true (List.length res.E.rows <= 20)
          | "Q12" -> Alcotest.(check bool) "two modes" true (List.length res.E.rows <= 2)
          | _ -> ()))
    Tpch.Tpch_queries.all

(* Differential check for Q6: fold the predicate by hand over raw rows. *)
let q6_expected db ~date_lo ~date_hi ~disc_lo ~disc_hi ~quantity =
  let total = ref 0.0 and seen = ref false in
  E.exec_rows db
    "SELECT l_shipdate, l_discount, l_quantity, l_extendedprice FROM lineitem"
    ~f:(fun _ row ->
      match row with
      | [| R.Text ship; R.Real disc; R.Int qty; R.Real price |] ->
        if
          ship >= date_lo && ship < date_hi
          && disc >= disc_lo -. 1e-9
          && disc <= disc_hi +. 1e-9
          && qty < quantity
        then begin
          seen := true;
          total := !total +. (price *. disc)
        end
      | _ -> Alcotest.fail "unexpected row shape");
  if !seen then R.Real !total else R.Null

let differential =
  [ Alcotest.test_case "Q6 matches a hand computation" `Quick (fun () ->
        let db = db () in
        let got = E.scalar db (Tpch.Tpch_queries.q6 ()) in
        let want =
          q6_expected db ~date_lo:"1994-01-01" ~date_hi:"1995-01-01" ~disc_lo:0.05
            ~disc_hi:0.07 ~quantity:24
        in
        Alcotest.(check bool)
          (Printf.sprintf "got %s want %s" (R.value_to_string got) (R.value_to_string want))
          true (veq got want));
    Alcotest.test_case "Q1 count_order matches a hand computation" `Quick (fun () ->
        let db = db () in
        let model = Hashtbl.create 8 in
        E.exec_rows db "SELECT l_returnflag, l_linestatus, l_shipdate FROM lineitem"
          ~f:(fun _ row ->
            match row with
            | [| R.Text rf; R.Text ls; R.Text ship |] ->
              if ship <= "1998-09-02" then
                Hashtbl.replace model (rf, ls)
                  (1 + Option.value (Hashtbl.find_opt model (rf, ls)) ~default:0)
            | _ -> Alcotest.fail "unexpected row shape");
        let res = E.exec db (Tpch.Tpch_queries.q1 ()) in
        Alcotest.(check int) "group count" (Hashtbl.length model) (List.length res.E.rows);
        List.iter
          (fun row ->
            match (row.(0), row.(1), row.(Array.length row - 1)) with
            | R.Text rf, R.Text ls, R.Int n ->
              Alcotest.(check (option int))
                (Printf.sprintf "group %s/%s" rf ls)
                (Some n)
                (Hashtbl.find_opt model (rf, ls))
            | _ -> Alcotest.fail "unexpected Q1 row")
          res.E.rows);
    Alcotest.test_case "Q5 revenue is consistent with Q5 re-aggregated" `Quick (fun () ->
        let db = db () in
        let res = E.exec db (Tpch.Tpch_queries.q5 ()) in
        (* revenues are sorted descending *)
        let revs =
          List.map
            (fun r -> match r.(1) with R.Real f -> f | R.Int i -> float_of_int i | _ -> nan)
            res.E.rows
        in
        let rec sorted = function
          | a :: b :: tl -> a >= b && sorted (b :: tl)
          | _ -> true
        in
        Alcotest.(check bool) "descending" true (sorted revs)) ]

let retrospective =
  [ Alcotest.test_case "Q6 AS OF returns the historical answer" `Quick (fun () ->
        let ctx, st = Lazy.force ctx_and_state in
        let db = ctx.Rql.data in
        let before = E.scalar db (Tpch.Tpch_queries.q6 ()) in
        let sid = Rql.declare_snapshot ctx in
        (* churn the database *)
        ignore (Tpch.Refresh.rf2 st db ~count:200);
        ignore (Tpch.Refresh.rf1 st db ~count:200);
        let current = E.scalar db (Tpch.Tpch_queries.q6 ()) in
        let as_of =
          let q6 = Tpch.Tpch_queries.q6 () in
          (* "SELECT <rest>" -> "SELECT AS OF <sid> <rest>" *)
          E.scalar db
            (Printf.sprintf "SELECT AS OF %d %s" sid (String.sub q6 7 (String.length q6 - 7)))
        in
        Alcotest.(check bool) "historical matches pre-churn" true (veq before as_of);
        Alcotest.(check bool) "current differs (churned)" true (not (veq before current)));
    Alcotest.test_case "Q1 inside an RQL mechanism across snapshots" `Quick (fun () ->
        let ctx, st = Lazy.force ctx_and_state in
        (* two more snapshots *)
        ignore (Tpch.Refresh.rf2 st ctx.Rql.data ~count:100);
        ignore (Tpch.Refresh.rf1 st ctx.Rql.data ~count:100);
        ignore (Rql.declare_snapshot ctx);
        let run =
          Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds"
            ~qq:
              ("SELECT current_snapshot() AS sid, l_returnflag, l_linestatus, COUNT(*) AS \
                count_order FROM lineitem WHERE l_shipdate <= '1998-09-02' GROUP BY \
                l_returnflag, l_linestatus")
            ~table:"q1_series"
        in
        Alcotest.(check bool) "iterated" true (List.length run.Rql.Iter_stats.iterations >= 2);
        Alcotest.(check bool) "collected" true (run.Rql.Iter_stats.result_rows >= 4)) ]

let () =
  Alcotest.run "tpch-queries"
    [ ("run-all", run_all); ("differential", differential); ("retrospective", retrospective) ]
