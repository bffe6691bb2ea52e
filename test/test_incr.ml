(* Delta-driven RQL iterations (lib/sql/incr.ml) and what they rest on.

   The oracle is the naive loop: the same mechanism with PRAGMA
   incremental=off, which evaluates every snapshot's Qq on the ordinary
   executor.  The Qqs aggregate, or return rows (a projection, a join)
   for CollateData, AggregateDataInTable and CollateDataIntoIntervals.  Each incremental run must leave a byte-identical result
   table (rows in heap order) across the UW7.5-UW60 histories, on one
   stripe and on two and three (each stripe a delta from its own
   previous snapshot), after a vacuum, and for snapshot sets that skip
   or run backwards, also when a run starts warm from the evaluator an
   earlier run of its Qq kept.  Below
   that: the archive's changed-page set is exactly the pages whose SPT
   entries differ. *)

module R = Storage.Record
module E = Sqldb.Engine
module IS = Rql.Iter_stats

(* --- histories ------------------------------------------------------------ *)

let history ?(snapshots = 6) uw =
  let ctx, _st, sids = Tpch.Workload.build_history ~sf:0.002 ~uw ~snapshots () in
  (ctx, sids)

let retro ctx = Sqldb.Db.retro_exn ctx.Rql.data

let changed_pages_tests =
  [ Alcotest.test_case "changed pages are exactly the SPT differences" `Quick (fun () ->
        let ctx, sids = history ~snapshots:5 Tpch.Workload.uw30 in
        let rt = retro ctx in
        List.iter
          (fun a ->
            List.iter
              (fun b ->
                let sa = Retro.build_spt rt a and sb = Retro.build_spt rt b in
                let changed = Retro.changed_pages rt a b in
                for pid = 0 to min (Retro.Spt.db_pages sa) (Retro.Spt.db_pages sb) - 1 do
                  Alcotest.(check bool)
                    (Printf.sprintf "page %d between %d and %d" pid a b)
                    (Retro.Spt.find sa pid <> Retro.Spt.find sb pid)
                    (Hashtbl.mem changed pid)
                done)
              sids)
          sids) ]

(* --- incremental vs naive loop --------------------------------------------- *)

(* The result table, byte for byte, in heap order. *)
let table_bytes ctx table =
  List.map R.encode_row (E.query ctx.Rql.meta (Printf.sprintf "SELECT * FROM %s" table))

let set_incremental ctx on =
  ignore (E.exec ctx.Rql.data (if on then "PRAGMA incremental=on" else "PRAGMA incremental=off"))

type mech = {
  label : string;
  qq : string;
  run : domains:int -> Rql.ctx -> qs:string -> qq:string -> table:string -> IS.run;
}

let agg_var fn ~domains ctx ~qs ~qq ~table =
  Rql.aggregate_data_in_variable ~domains ctx ~qs ~qq ~table ~fn

let agg_table aggs ~domains ctx ~qs ~qq ~table =
  Rql.aggregate_data_in_table ~domains ctx ~qs ~qq ~table ~aggs

let collate ~domains ctx ~qs ~qq ~table = Rql.collate_data ~domains ctx ~qs ~qq ~table

let intervals ~domains ctx ~qs ~qq ~table =
  Rql.collate_data_into_intervals ~domains ctx ~qs ~qq ~table

let mechs =
  [ { label = "Qq_io AVG";
      qq = "SELECT COUNT(*) AS c FROM orders WHERE o_orderstatus = 'O'";
      run = agg_var "AVG" };
    { label = "real SUM, MAX";
      qq = "SELECT SUM(o_totalprice) AS s FROM orders";
      run = agg_var "MAX" };
    { label = "Qq_agg";
      qq = "SELECT o_custkey, COUNT(*) AS cn, AVG(o_totalprice) AS av FROM orders GROUP BY o_custkey";
      run = agg_table [ ("cn", "MAX"); ("av", "MIN") ] };
    { label = "grouped, HAVING, ORDER BY";
      qq =
        "SELECT o_orderpriority, MIN(o_totalprice) AS lo, MAX(o_totalprice) AS hi, COUNT(*) AS n, \
         TOTAL(o_shippriority) AS t FROM orders WHERE o_totalprice > 1000 GROUP BY \
         o_orderpriority HAVING COUNT(*) > 1 ORDER BY n DESC";
      run = collate };
    { label = "lineitem groups as intervals";
      qq =
        "SELECT l_returnflag, l_linestatus, COUNT(*) AS n, SUM(l_quantity) AS q FROM lineitem \
         WHERE l_quantity < 30 GROUP BY l_returnflag, l_linestatus";
      run = intervals };
    (* Hash joins: the inner source keeps its pages and a covering index
       on the join key. *)
    { label = "Qq_cpu AVG";
      qq =
        "SELECT SUM(l_extendedprice) AS revenue FROM part, lineitem WHERE p_partkey = l_partkey \
         AND p_type = 'STANDARD POLISHED TIN'";
      run = agg_var "AVG" };
    (* Every brand ties many parts, every part many lineitems: group
       order, the representative row (l_orderkey) and the REAL sums
       all follow the order the join emits its rows in. *)
    { label = "join groups with tied keys";
      qq =
        "SELECT p_brand, l_orderkey AS k, COUNT(*) AS n, SUM(l_quantity) AS q, \
         SUM(l_extendedprice) AS rev FROM part, lineitem WHERE p_partkey = l_partkey GROUP BY \
         p_brand";
      run = agg_table [ ("n", "MAX"); ("q", "MIN"); ("rev", "MAX") ] };
    { label = "two hash joins and a residual";
      qq =
        "SELECT c_mktsegment, COUNT(*) AS n, SUM(l_extendedprice) AS rev FROM customer, orders, \
         lineitem WHERE c_custkey = o_custkey AND o_orderkey = l_orderkey AND l_extendedprice * \
         10 > o_totalprice GROUP BY c_mktsegment";
      run = collate };
    { label = "self join";
      qq =
        "SELECT SUM(b.o_totalprice) AS s FROM orders a, orders b WHERE a.o_custkey = b.o_custkey \
         AND a.o_orderstatus = 'F'";
      run = agg_var "MAX" };
    (* Row Qqs: the kept driving rows, in chain and slot order, are the
       rows; no aggregate. *)
    { label = "filtered orders rows";
      qq =
        "SELECT o_orderkey, o_custkey, o_totalprice * 2 AS dbl FROM orders WHERE o_orderpriority \
         = '1-URGENT'";
      run = collate };
    { label = "part lineitem rows";
      qq =
        "SELECT p_brand, l_orderkey, l_linenumber, l_quantity FROM part, lineitem WHERE p_partkey \
         = l_partkey AND p_size < 6";
      run = collate };
    (* one row per order: the loop body sums each order's price over
       the snapshots it is live in *)
    { label = "rows summed by the loop body";
      qq = "SELECT o_orderkey, o_custkey, o_totalprice FROM orders WHERE o_totalprice < 50000";
      run = agg_table [ ("o_totalprice", "SUM") ] };
    { label = "Qq_int as intervals";
      qq = "SELECT o_orderkey, o_custkey FROM orders";
      run = intervals } ]

(* A Qq that repeats its group (o_custkey) within a snapshot: the loop
   body folds the repeats into one row per group, and two runs must
   agree.  At UW7.5 only, which has the most repeats per snapshot. *)
let repeated_groups =
  { label = "repeated groups MAX";
    qq = "SELECT o_custkey, o_totalprice, o_orderstatus FROM orders WHERE o_totalprice > 1000";
    run = agg_table [ ("o_totalprice", "MAX") ] }

(* The loop body's work, iteration by iteration. *)
let work run =
  List.map
    (fun (it : IS.iteration) -> (it.IS.udf_rows, it.IS.udf_inserts, it.IS.udf_updates))
    run.IS.iterations

(* Run [m] naively (one stripe) and incrementally on [domains] stripes
   into two result tables; both must hold the same bytes, and the loop
   body must do the same work.  [naive] keeps the naive runs' tables and
   work by mechanism and Qs, for callers that repeat them.  Returns the
   incremental run. *)
let differential ?(domains = 1) ?(naive = Hashtbl.create 1) ctx ~name ~qs m =
  let table = "R_" ^ String.map (fun ch -> if ch = ' ' || ch = ',' then '_' else ch) m.label in
  let want, want_work =
    match Hashtbl.find_opt naive (m.label, qs) with
    | Some w -> w
    | None ->
      set_incremental ctx false;
      let run = m.run ~domains:1 ctx ~qs ~qq:m.qq ~table in
      List.iter
        (fun (it : IS.iteration) ->
          Alcotest.(check string) "naive iterations are plain" "plain" it.IS.eval)
        run.IS.iterations;
      let w = (table_bytes ctx table, work run) in
      Hashtbl.replace naive (m.label, qs) w;
      w
  in
  set_incremental ctx true;
  let run = m.run ~domains ctx ~qs ~qq:m.qq ~table in
  Alcotest.(check (list string))
    (Printf.sprintf "%s, %d stripe(s): %s" name domains m.label)
    want (table_bytes ctx table);
  Alcotest.(check (list (triple int int int)))
    (Printf.sprintf "%s, %d stripe(s): %s rows, inserts, updates" name domains m.label)
    want_work (work run);
  run

let evals run = List.map (fun (it : IS.iteration) -> it.IS.eval) run.IS.iterations

(* The modes of a delta-driven run over [n] snapshots on [k] stripes:
   each stripe's first snapshot is full, every later one a delta. *)
let striped ~k n = List.init n (fun i -> if i < k then "full" else "delta")

let pages_evaluated run =
  List.fold_left (fun n (it : IS.iteration) -> n + it.IS.pages_evaluated) 0 run.IS.iterations

let all_snapshots = "SELECT snap_id FROM SnapIds"

let uw_matrix =
  [ Alcotest.test_case "byte-identical to the naive loop across UW7.5-UW60" `Quick (fun () ->
        List.iter
          (fun uw ->
            let ctx, sids = history uw in
            let name = uw.Tpch.Workload.uname in
            List.iter
              (fun m ->
                let run = differential ctx ~name ~qs:all_snapshots m in
                Alcotest.(check (list string))
                  (Printf.sprintf "%s: %s modes" name m.label)
                  ("full" :: List.map (fun _ -> "delta") (List.tl sids))
                  (evals run))
              (if uw == Tpch.Workload.uw7_5 then mechs @ [ repeated_groups ] else mechs))
          Tpch.Workload.[ uw7_5; uw15; uw30; uw60 ]);
    Alcotest.test_case "k stripes are byte-identical to the naive loop" `Quick (fun () ->
        List.iter
          (fun uw ->
            let ctx, sids = history uw in
            let name = uw.Tpch.Workload.uname in
            List.iter
              (fun m ->
                let one = differential ctx ~name ~qs:all_snapshots m in
                List.iter
                  (fun k ->
                    let run = differential ~domains:k ctx ~name ~qs:all_snapshots m in
                    let label = Printf.sprintf "%s, %d stripes: %s" name k m.label in
                    Alcotest.(check (list string)) (label ^ " modes")
                      (striped ~k (List.length sids)) (evals run);
                    (* each stripe but the first starts with one more full
                       evaluation; its deltas span k snapshots' changes *)
                    Alcotest.(check bool)
                      (Printf.sprintf "%s: %d pages evaluated, one stripe %d" label
                         (pages_evaluated run) (pages_evaluated one))
                      true
                      (pages_evaluated run <= k * pages_evaluated one))
                  [ 2; 3 ])
              mechs)
          Tpch.Workload.[ uw7_5; uw15; uw30; uw60 ]);
    Alcotest.test_case "hot iterations evaluate only the changed pages" `Quick (fun () ->
        let ctx, _ = history Tpch.Workload.uw15 in
        (* a join counts the pages of both its sources *)
        let heap_pages sid tables =
          let env = Sqldb.Exec.snapshot_env ctx.Rql.data sid in
          List.fold_left
            (fun n t ->
              let tbl = Option.get (Sqldb.Catalog.find_table env.Sqldb.Exec.cat t) in
              n
              + Storage.Heap.page_count env.Sqldb.Exec.read
                  (Storage.Heap.open_existing tbl.Sqldb.Catalog.theap))
            0 tables
        in
        List.iter
          (fun (label, tables) ->
            let m = List.find (fun m -> m.label = label) mechs in
            let run = differential ctx ~name:"UW15" ~qs:all_snapshots m in
            match run.IS.iterations with
            | first :: hot ->
              let pages = first.IS.pages_evaluated in
              Alcotest.(check int)
                (label ^ ": the first iteration reads every page")
                (heap_pages first.IS.snap_id tables) pages;
              Alcotest.(check int) "the first iteration reuses nothing" 0 first.IS.pages_reused;
              List.iter
                (fun (it : IS.iteration) ->
                  Alcotest.(check int) "every heap page accounted" pages
                    (it.IS.pages_evaluated + it.IS.pages_reused);
                  Alcotest.(check bool)
                    (Printf.sprintf "%s, snapshot %d: %d of %d pages" label it.IS.snap_id
                       it.IS.pages_evaluated pages)
                    true
                    (it.IS.pages_evaluated * 4 < pages))
                hot
            | [] -> Alcotest.fail "no iterations")
          [ ("Qq_io AVG", [ "orders" ]);
            ("Qq_cpu AVG", [ "part"; "lineitem" ]);
            ("filtered orders rows", [ "orders" ]);
            ("part lineitem rows", [ "part"; "lineitem" ]) ]);
    Alcotest.test_case "snapshot sets that skip and run backwards" `Quick (fun () ->
        let ctx, _ = history Tpch.Workload.uw30 in
        List.iter
          (fun qs -> List.iter (fun m -> ignore (differential ctx ~name:qs ~qs m)) mechs)
          [ "SELECT snap_id FROM SnapIds WHERE snap_id % 2 = 1";
            "SELECT snap_id FROM SnapIds ORDER BY snap_id DESC" ]);
    Alcotest.test_case "after a vacuum, over the surviving snapshots" `Quick (fun () ->
        let ctx, _ = history Tpch.Workload.uw60 in
        ignore (E.exec ctx.Rql.data "VACUUM SNAPSHOTS KEEPING LAST 3");
        List.iter
          (fun m ->
            let qs = "SELECT snap_id FROM SnapIds WHERE snap_id >= 4" in
            let run = differential ctx ~name:"vacuumed" ~qs m in
            Alcotest.(check (list string)) "modes" [ "full"; "delta"; "delta" ] (evals run))
          mechs) ]

(* --- when the loop falls back ----------------------------------------------- *)

let fallback =
  [ Alcotest.test_case "a vacuumed previous snapshot forces a full iteration" `Quick (fun () ->
        let ctx, _ = history Tpch.Workload.uw30 in
        let qq = "SELECT COUNT(*) AS c FROM orders WHERE o_orderstatus = 'O'" in
        let count sid =
          E.int_scalar ctx.Rql.data
            (Printf.sprintf "SELECT AS OF %d COUNT(*) FROM orders WHERE o_orderstatus = 'O'" sid)
        in
        let at4 = count 4 in
        let step sid =
          ignore
            (E.exec ctx.Rql.meta
               (Printf.sprintf
                  "SELECT AggregateDataInVariable(snap_id, '%s', 'G', 'SUM') FROM SnapIds WHERE \
                   snap_id = %d"
                  (String.concat "''" (String.split_on_char '\'' qq)) sid))
        in
        step 4;
        ignore (E.exec ctx.Rql.data "VACUUM SNAPSHOTS KEEPING LAST 1");
        step 6;
        Alcotest.(check (list string)) "sum of both snapshots"
          [ R.encode_row [| R.Int (at4 + count 6) |] ]
          (table_bytes ctx "G");
        match Rql.take_run ctx ~table:"G" with
        | Some run -> Alcotest.(check (list string)) "modes" [ "full"; "full" ] (evals run)
        | None -> Alcotest.fail "no SQL-form run");
    Alcotest.test_case "non-hash joins, all-cold and parallel runs: plain, plain, striped" `Quick
      (fun () ->
        let ctx, _ = history ~snapshots:3 Tpch.Workload.uw30 in
        let plain run = List.for_all (fun e -> e = "plain") (evals run) in
        let qs = all_snapshots in
        let sum ?(ctx = ctx) table qq =
          Rql.aggregate_data_in_variable ctx ~qs ~fn:"SUM" ~table ~qq
        in
        Alcotest.(check (list string)) "hash join" [ "full"; "delta"; "delta" ]
          (evals (sum "J" "SELECT COUNT(*) FROM orders, customer WHERE o_custkey = c_custkey"));
        Alcotest.(check bool) "left join" true
          (plain
             (sum "L" "SELECT COUNT(*) FROM orders LEFT JOIN customer ON o_custkey = c_custkey"));
        Alcotest.(check bool) "theta join" true
          (plain (sum "T" "SELECT COUNT(*) FROM customer, nation WHERE c_nationkey < n_nationkey"));
        (* an index probe needs the index in the snapshots themselves *)
        let small = Rql.create () in
        let e sql = ignore (E.exec small.Rql.data sql) in
        e "CREATE TABLE a (x INTEGER)";
        e "CREATE TABLE b (y INTEGER)";
        e "CREATE INDEX b_y ON b (y)";
        e "INSERT INTO a VALUES (1), (2)";
        e "INSERT INTO b VALUES (1), (1), (2)";
        ignore (Rql.declare_snapshot small);
        e "BEGIN";
        e "INSERT INTO b VALUES (2)";
        ignore (Rql.declare_snapshot small);
        Alcotest.(check bool) "index probe join" true
          (plain (sum ~ctx:small "I" "SELECT COUNT(*) FROM a, b WHERE x = y"));
        Alcotest.(check (list string)) "index probe sums" [ R.encode_row [| R.Int 7 |] ]
          (table_bytes small "I");
        Alcotest.(check bool) "current_snapshot() in the body" true
          (plain (sum "S" "SELECT COUNT(*) FROM orders WHERE o_orderkey > current_snapshot()"));
        let qq = (List.hd mechs).qq in
        Alcotest.(check bool) "all-cold" true
          (plain (Rql.aggregate_data_in_variable ~all_cold:true ctx ~qs ~qq ~table:"C" ~fn:"AVG"));
        Alcotest.(check (list string)) "two stripes" (striped ~k:2 3)
          (evals (Rql.aggregate_data_in_variable ~domains:2 ctx ~qs ~qq ~table:"P" ~fn:"AVG")));
    Alcotest.test_case "past its row budget a run goes plain" `Quick (fun () ->
        let ctx, sids = history ~snapshots:4 Tpch.Workload.uw30 in
        let db = ctx.Rql.data in
        let p =
          E.prepare db
            "SELECT AS OF ? o_orderpriority, COUNT(*) AS n, SUM(o_totalprice) AS s FROM orders \
             GROUP BY o_orderpriority"
        in
        let rows ?incr sid =
          let _, run = E.prepared_stream ~params:[| R.Int sid |] ?incr p in
          let acc = ref [] in
          run (fun r -> acc := R.encode_row r :: !acc);
          List.rev !acc
        in
        let most =
          List.fold_left max 0
            (List.map
               (fun sid ->
                 E.int_scalar db (Printf.sprintf "SELECT AS OF %d COUNT(*) FROM orders" sid))
               sids)
        in
        let modes inc =
          List.map
            (fun sid ->
              let want = rows sid in
              Alcotest.(check (list string)) (Printf.sprintf "snapshot %d" sid) want (rows ~incr:inc sid);
              match Sqldb.Incr.last inc with
              | Some r -> Sqldb.Incr.mode_to_string r.Sqldb.Incr.mode
              | None -> "plain")
            sids
        in
        Alcotest.(check (list string)) "within the budget"
          ("full" :: List.map (fun _ -> "delta") (List.tl sids))
          (modes (Sqldb.Incr.create ~max_rows:most ()));
        Alcotest.(check (list string)) "over it"
          (List.map (fun _ -> "plain") sids)
          (modes (Sqldb.Incr.create ~max_rows:(most / 2) ())));
    Alcotest.test_case "PRAGMA incremental reads and sets the switch" `Quick (fun () ->
        let ctx = Rql.create () in
        let get () = E.query ctx.Rql.data "PRAGMA incremental" in
        Alcotest.(check bool) "on by default" true (get () = [ [| R.Text "on" |] ]);
        set_incremental ctx false;
        Alcotest.(check bool) "off" true (get () = [ [| R.Text "off" |] ])) ]

(* --- warm starts ---------------------------------------------------------------- *)

(* How a run's first iteration evaluated, and from which snapshot. *)
let first_eval (run : IS.run) =
  match run.IS.iterations with
  | it :: _ -> (it.IS.eval, it.IS.base)
  | [] -> Alcotest.fail "no iterations"

let eval_base = Alcotest.(pair string (option int))

let data ctx sql = ignore (E.exec ctx.Rql.data sql)

let mech label = List.find (fun m -> m.label = label) mechs

(* Qq_io, Qq_cpu (a hash join), Qq_agg and Qq_int, through
   AggregateDataInVariable, AggregateDataInTable and
   CollateDataIntoIntervals. *)
let warm_mechs = List.map mech [ "Qq_io AVG"; "Qq_cpu AVG"; "Qq_agg"; "Qq_int as intervals" ]

let warm =
  [ Alcotest.test_case "a run resumes where the last run of its Qq stopped" `Quick (fun () ->
        let ctx, _, _ =
          Tpch.Workload.build_history ~sf:0.001 ~uw:Tpch.Workload.uw30 ~snapshots:6 ()
        in
        let range lo hi =
          Printf.sprintf "SELECT snap_id FROM SnapIds WHERE snap_id BETWEEN %d AND %d" lo hi
        in
        (* each run against the naive loop; its first iteration *)
        let naive = Hashtbl.create 32 in
        let run m name qs want =
          let r = differential ~naive ctx ~name ~qs m in
          let label = Printf.sprintf "%s: %s, first iteration" name m.label in
          Alcotest.check eval_base label want (first_eval r);
          (match r.IS.iterations with
          | { IS.eval = "delta"; pages_evaluated; pages_reused; _ } :: _ ->
            (* a warm delta re-reads the changed pages and reuses the rest *)
            Alcotest.(check bool) (label ^ ": re-reads and reuses") true
              (pages_evaluated > 0 && pages_reused > 0)
          | _ -> ());
          r
        in
        List.iteri
          (fun i m ->
            ignore (run m "first run" (range 1 2) ("full", None));
            ignore (run m "after the kept snapshot" (range 4 6) ("delta", Some 2));
            ignore (run m "before it" (range 1 3) ("delta", Some 6));
            ignore (run m "overlapping it" (range 2 5) ("delta", Some 3));
            data ctx (Printf.sprintf "CREATE TABLE warm_ddl%d (a INTEGER)" i);
            ignore (run m "after data-db DDL" (range 3 6) ("full", None));
            data ctx "PRAGMA optimize=off";
            let off = run m "optimize off" (range 1 2) ("plain", None) in
            Alcotest.(check (list string)) "optimize off: plain" [ "plain"; "plain" ] (evals off);
            data ctx "PRAGMA optimize=on";
            ignore (run m "optimize on again" (range 4 6) ("full", None));
            (* a run that fails keeps no evaluator *)
            let failing =
              "SELECT CASE WHEN snap_id = 6 THEN 99 ELSE snap_id END FROM SnapIds WHERE \
               snap_id >= 5"
            in
            set_incremental ctx true;
            (match m.run ~domains:1 ctx ~qs:failing ~qq:m.qq ~table:"R_failed" with
            | _ -> Alcotest.fail "snapshot 99 does not exist"
            | exception E.Error _ -> ());
            ignore (run m "after a failed run" (range 5 6) ("full", None));
            ignore (run m "before the vacuum" (range 1 3) ("delta", Some 6)))
          warm_mechs;
        (* every kept snapshot (3) is vacuumed *)
        data ctx "VACUUM SNAPSHOTS KEEPING LAST 2";
        List.iter (fun m -> ignore (run m "after a vacuum" (range 5 6) ("full", None))) warm_mechs);
    Alcotest.test_case "a re-executed SQL-form statement resumes the superseded run" `Quick
      (fun () ->
        let ctx, _ = history ~snapshots:5 Tpch.Workload.uw30 in
        let m = mech "Qq_agg" in
        let stmt where =
          ignore
            (E.exec ctx.Rql.meta
               (Printf.sprintf
                  "SELECT AggregateDataInTable(snap_id, '%s', 'A', '(cn,max):(av,min)') FROM \
                   SnapIds WHERE %s"
                  m.qq where))
        in
        let runs on =
          set_incremental ctx on;
          stmt "snap_id >= 3";
          stmt "snap_id <= 4";
          match Rql.take_run ctx ~table:"A" with
          | Some run -> (table_bytes ctx "A", run)
          | None -> Alcotest.fail "no SQL-form run"
        in
        let want, naive = runs false in
        let got, run = runs true in
        Alcotest.(check (list string)) "T" want got;
        Alcotest.(check (list (triple int int int)))
          "rows, inserts, updates" (work naive) (work run);
        Alcotest.check eval_base "backwards from the superseded run's last snapshot"
          ("delta", Some 5) (first_eval run);
        Alcotest.(check bool) "a warm first iteration is not cold" false
          (List.hd run.IS.iterations).IS.cold;
        (* a statement that fails after its warm first iteration keeps
           nothing for the statement that supersedes it *)
        Alcotest.(check bool) "snapshot 99 fails" true
          (match
             E.exec ctx.Rql.meta
               (Printf.sprintf
                  "SELECT AggregateDataInTable(CASE WHEN snap_id = 5 THEN 99 ELSE snap_id END, \
                   '%s', 'A', '(cn,max):(av,min)') FROM SnapIds WHERE snap_id >= 4"
                  m.qq)
           with
          | _ -> false
          | exception E.Error _ -> true);
        stmt "snap_id >= 2";
        match Rql.take_run ctx ~table:"A" with
        | Some run ->
          Alcotest.check eval_base "after a failed statement" ("full", None) (first_eval run)
        | None -> Alcotest.fail "no SQL-form run");
    Alcotest.test_case "the kept evaluators share one row budget" `Quick (fun () ->
        let ctx = Rql.create () in
        data ctx "CREATE TABLE big (a INTEGER)";
        data ctx "INSERT INTO big VALUES (1), (2)";
        let double () = data ctx "INSERT INTO big SELECT a + 1 FROM big" in
        for _ = 1 to 15 do
          double ()
        done;
        ignore (Rql.declare_snapshot ctx);
        (* 2^17 rows at snapshot 2: an aggregate over big keeps more than
           half the budget *)
        data ctx "BEGIN";
        double ();
        ignore (Rql.declare_snapshot ctx);
        let rows = E.int_scalar ctx.Rql.data "SELECT AS OF 2 COUNT(*) FROM big" in
        Alcotest.(check bool) "two evaluators exceed the budget" true
          (rows <= Sqldb.Incr.default_max_rows && 2 * rows > Sqldb.Incr.default_max_rows);
        (* the matrix above checks warm results; this checks which
           evaluators stay *)
        let sum qq qs table =
          first_eval (Rql.aggregate_data_in_variable ctx ~qs ~qq ~table ~fn:"SUM")
        in
        let at1 = "SELECT snap_id FROM SnapIds WHERE snap_id = 1" in
        let at2 = "SELECT snap_id FROM SnapIds WHERE snap_id = 2" in
        let count = "SELECT COUNT(*) AS c FROM big" and total = "SELECT SUM(a) AS s FROM big" in
        Alcotest.check eval_base "count" ("full", None) (sum count at2 "C");
        Alcotest.check eval_base "total" ("full", None) (sum total at2 "S");
        Alcotest.check eval_base "count again: evicted" ("full", None) (sum count at1 "C");
        Alcotest.check eval_base "total again: kept" ("delta", Some 2) (sum total at1 "S");
        (* a self-join keeps big twice: past the budget at snapshot 2 it
           runs plain, and its evaluator is not kept; both runs against
           the naive loop *)
        let join =
          { label = "J"; qq = "SELECT COUNT(*) AS c FROM big x, big y WHERE x.a = y.a + 1000";
            run = agg_var "SUM" }
        in
        let joined qs = first_eval (differential ctx ~name:"budget" ~qs join) in
        Alcotest.check eval_base "over budget" ("plain", None) (joined at2);
        Alcotest.check eval_base "after an over-budget run" ("full", None) (joined at1));
    Alcotest.test_case "a warm iteration reports its base" `Quick (fun () ->
        let ctx, _ = history ~snapshots:3 Tpch.Workload.uw30 in
        let m = List.hd mechs in
        let go () = m.run ~domains:1 ctx ~qs:all_snapshots ~qq:m.qq ~table:"B" in
        ignore (go ());
        let run = go () in
        let it = List.hd run.IS.iterations in
        Alcotest.(check bool) "not cold" false it.IS.cold;
        match IS.json_of_iteration it with
        | Obs.Json.Obj fields ->
          Alcotest.(check bool) "eval field" true
            (List.assoc_opt "eval" fields = Some (Obs.Json.Str "delta"));
          Alcotest.(check bool) "base field" true
            (List.assoc_opt "base" fields = Some (Obs.Json.Int 3))
        | _ -> Alcotest.fail "iteration JSON is not an object") ]

(* --- observability ------------------------------------------------------------ *)

let observability =
  [ Alcotest.test_case "run report and JSON mark each iteration" `Quick (fun () ->
        let ctx, _ = history ~snapshots:3 Tpch.Workload.uw30 in
        let m = List.hd mechs in
        let run =
          Rql.aggregate_data_in_variable ~analyze:true ctx ~qs:all_snapshots ~qq:m.qq ~table:"A"
            ~fn:"AVG"
        in
        Alcotest.(check (list string)) "report modes" [ "full"; "delta"; "delta" ]
          (List.map (fun (it : IS.iteration) -> it.IS.eval) run.IS.iterations);
        let scan =
          List.find (fun (a : Sqldb.Plan.op_actual) -> a.Sqldb.Plan.a_kind = "scan") run.IS.ops
        in
        Alcotest.(check int) "one scan loop per iteration" 3 scan.Sqldb.Plan.a_loops;
        match IS.json_of_iteration (List.nth run.IS.iterations 1) with
        | Obs.Json.Obj fields ->
          Alcotest.(check bool) "eval field" true
            (List.assoc_opt "eval" fields = Some (Obs.Json.Str "delta"))
        | _ -> Alcotest.fail "iteration JSON is not an object");
    Alcotest.test_case "a join's report sums its sources and keeps the join actuals" `Quick
      (fun () ->
        let ctx, _ = history ~snapshots:3 Tpch.Workload.uw30 in
        let m = List.find (fun m -> m.label = "join groups with tied keys") mechs in
        let analyzed table =
          let run =
            Rql.aggregate_data_in_table ~analyze:true ctx ~qs:all_snapshots ~qq:m.qq ~table
              ~aggs:[ ("n", "MAX") ]
          in
          let join =
            List.find
              (fun (a : Sqldb.Plan.op_actual) -> a.Sqldb.Plan.a_kind = "hash_join")
              run.IS.ops
          in
          (run, join)
        in
        set_incremental ctx false;
        let _, plain = analyzed "N" in
        set_incremental ctx true;
        let run, delta = analyzed "D" in
        Alcotest.(check (list string)) "modes" [ "full"; "delta"; "delta" ]
          (List.map (fun (it : IS.iteration) -> it.IS.eval) run.IS.iterations);
        Alcotest.(check int) "join rows" plain.Sqldb.Plan.a_rows delta.Sqldb.Plan.a_rows;
        Alcotest.(check int) "join probes" plain.Sqldb.Plan.a_probes delta.Sqldb.Plan.a_probes;
        (* part and lineitem pages: more than lineitem alone holds *)
        match run.IS.iterations with
        | { IS.snap_id = sid; pages_evaluated = pages; _ } :: _ ->
          let env = Sqldb.Exec.snapshot_env ctx.Rql.data sid in
          let count t =
            let tbl = Option.get (Sqldb.Catalog.find_table env.Sqldb.Exec.cat t) in
            Storage.Heap.page_count env.Sqldb.Exec.read
              (Storage.Heap.open_existing tbl.Sqldb.Catalog.theap)
          in
          Alcotest.(check int) "first evaluation reads both sources" (count "part" + count "lineitem")
            pages
        | [] -> Alcotest.fail "no evaluations") ]

let () =
  Alcotest.run "incr"
    [ ("changed", changed_pages_tests);
      ("naive", uw_matrix);
      ("fallback", fallback);
      ("warm", warm);
      ("report", observability) ]
