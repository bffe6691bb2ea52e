(* TPC-H substrate tests: schema and population, determinism, refresh
   functions, update-workload histories and their snapshot behaviour. *)

module R = Storage.Record
module E = Sqldb.Engine

(* a small scale factor keeps the suite fast *)
let sf = 0.002

let tests =
  [ Alcotest.test_case "dbgen populates all eight tables at scale" `Quick (fun () ->
        let ctx = Rql.create () in
        let st = Tpch.Dbgen.generate ctx.Rql.data ~sf in
        let count t = E.int_scalar ctx.Rql.data (Printf.sprintf "SELECT COUNT(*) FROM %s" t) in
        Alcotest.(check int) "region" 5 (count "region");
        Alcotest.(check int) "nation" 25 (count "nation");
        Alcotest.(check int) "supplier" (Tpch.Schema.scaled sf Tpch.Schema.sf1_supplier 10)
          (count "supplier");
        Alcotest.(check int) "part" (Tpch.Schema.scaled sf Tpch.Schema.sf1_part 50) (count "part");
        Alcotest.(check int) "customer" (Tpch.Schema.scaled sf Tpch.Schema.sf1_customer 30)
          (count "customer");
        let n_orders = Tpch.Schema.scaled sf Tpch.Schema.sf1_orders 100 in
        Alcotest.(check int) "orders" n_orders (count "orders");
        Alcotest.(check int) "partsupp is 4x part"
          (4 * Tpch.Schema.scaled sf Tpch.Schema.sf1_part 50)
          (count "partsupp");
        Alcotest.(check int) "state live orders" n_orders (Tpch.Dbgen.order_count st);
        (* lineitems: 1..7 per order *)
        let n_items = count "lineitem" in
        Alcotest.(check bool) "lineitem bounds" true
          (n_items >= n_orders && n_items <= 7 * n_orders));
    Alcotest.test_case "generation is deterministic per seed" `Quick (fun () ->
        let gen seed =
          let ctx = Rql.create () in
          ignore (Tpch.Dbgen.generate ~seed ctx.Rql.data ~sf);
          E.exec ctx.Rql.data "SELECT o_orderkey, o_totalprice FROM orders ORDER BY o_orderkey LIMIT 20"
        in
        let a = gen 7 and b = gen 7 and c = gen 8 in
        Alcotest.(check bool) "same seed same data" true (a.E.rows = b.E.rows);
        Alcotest.(check bool) "different seed differs" true (a.E.rows <> c.E.rows));
    Alcotest.test_case "column domains" `Quick (fun () ->
        let ctx = Rql.create () in
        ignore (Tpch.Dbgen.generate ctx.Rql.data ~sf);
        let bad =
          E.int_scalar ctx.Rql.data
            "SELECT COUNT(*) FROM orders WHERE o_orderstatus <> 'O' AND o_orderstatus <> 'F' \
             AND o_orderstatus <> 'P'"
        in
        Alcotest.(check int) "statuses" 0 bad;
        let types =
          E.int_scalar ctx.Rql.data "SELECT COUNT(DISTINCT p_type) FROM part"
        in
        Alcotest.(check bool) "p_type variety" true (types > 10);
        let dates =
          E.int_scalar ctx.Rql.data
            "SELECT COUNT(*) FROM orders WHERE o_orderdate < '1992-01-01' OR o_orderdate > \
             '1998-08-03'"
        in
        Alcotest.(check int) "date range" 0 dates);
    Alcotest.test_case "rf1 inserts orders and lineitems with fresh keys" `Quick (fun () ->
        let ctx = Rql.create () in
        let st = Tpch.Dbgen.generate ctx.Rql.data ~sf in
        let before = E.int_scalar ctx.Rql.data "SELECT COUNT(*) FROM orders" in
        let maxkey = E.int_scalar ctx.Rql.data "SELECT MAX(o_orderkey) FROM orders" in
        ignore (Tpch.Refresh.rf1 st ctx.Rql.data ~count:10);
        Alcotest.(check int) "orders +10" (before + 10)
          (E.int_scalar ctx.Rql.data "SELECT COUNT(*) FROM orders");
        Alcotest.(check int) "new keys above max" 10
          (E.int_scalar ctx.Rql.data
             (Printf.sprintf "SELECT COUNT(*) FROM orders WHERE o_orderkey > %d" maxkey));
        Alcotest.(check int) "new orders are open" 10
          (E.int_scalar ctx.Rql.data
             (Printf.sprintf
                "SELECT COUNT(*) FROM orders WHERE o_orderkey > %d AND o_orderstatus = 'O'"
                maxkey)));
    Alcotest.test_case "rf2 deletes orders and their lineitems" `Quick (fun () ->
        let ctx = Rql.create () in
        let st = Tpch.Dbgen.generate ctx.Rql.data ~sf in
        let orders_before = E.int_scalar ctx.Rql.data "SELECT COUNT(*) FROM orders" in
        let deleted = Tpch.Refresh.rf2 st ctx.Rql.data ~count:20 in
        Alcotest.(check int) "deleted count" 20 deleted;
        Alcotest.(check int) "orders shrunk" (orders_before - 20)
          (E.int_scalar ctx.Rql.data "SELECT COUNT(*) FROM orders");
        (* no orphan lineitems: every l_orderkey still has its order
           (checked via a join; the engine has no IN-subquery form) *)
        let item_orders =
          E.int_scalar ctx.Rql.data
            "SELECT COUNT(DISTINCT l_orderkey) FROM lineitem"
        in
        let matched =
          E.int_scalar ctx.Rql.data
            "SELECT COUNT(DISTINCT l_orderkey) FROM lineitem, orders WHERE l_orderkey = \
             o_orderkey"
        in
        Alcotest.(check int) "all lineitems have orders" item_orders matched);
    Alcotest.test_case "workload parameters match the paper" `Quick (fun () ->
        Alcotest.(check int) "UW15 at SF1" 15_000
          (Tpch.Workload.orders_per_snapshot Tpch.Workload.uw15 ~sf:1.0);
        Alcotest.(check int) "UW30 at SF1" 30_000
          (Tpch.Workload.orders_per_snapshot Tpch.Workload.uw30 ~sf:1.0);
        Alcotest.(check int) "UW30 overwrite cycle" 50
          (Tpch.Workload.overwrite_cycle Tpch.Workload.uw30);
        Alcotest.(check int) "UW15 overwrite cycle" 100
          (Tpch.Workload.overwrite_cycle Tpch.Workload.uw15);
        Alcotest.(check int) "UW7.5 overwrite cycle" 200
          (Tpch.Workload.overwrite_cycle Tpch.Workload.uw7_5);
        Alcotest.(check int) "UW60 overwrite cycle" 25
          (Tpch.Workload.overwrite_cycle Tpch.Workload.uw60));
    Alcotest.test_case "build_history declares snapshots and keeps sizes stable" `Quick
      (fun () ->
        let ctx, st, sids =
          Tpch.Workload.build_history ~sf ~uw:Tpch.Workload.uw30 ~snapshots:5 ()
        in
        Alcotest.(check (list int)) "snapshot ids" [ 1; 2; 3; 4; 5 ] sids;
        Alcotest.(check int) "SnapIds rows" 5
          (E.int_scalar ctx.Rql.meta "SELECT COUNT(*) FROM SnapIds");
        (* delete+insert keeps the order population constant *)
        let n_orders = Tpch.Schema.scaled sf Tpch.Schema.sf1_orders 100 in
        Alcotest.(check int) "orders constant" n_orders
          (E.int_scalar ctx.Rql.data "SELECT COUNT(*) FROM orders");
        Alcotest.(check int) "state agrees" n_orders (Tpch.Dbgen.order_count st));
    Alcotest.test_case "snapshots of the history read consistently" `Quick (fun () ->
        let ctx, _st, sids =
          Tpch.Workload.build_history ~sf ~uw:Tpch.Workload.uw30 ~snapshots:4 ()
        in
        let n_orders = Tpch.Schema.scaled sf Tpch.Schema.sf1_orders 100 in
        List.iter
          (fun sid ->
            Alcotest.(check int)
              (Printf.sprintf "count as of %d" sid)
              n_orders
              (E.int_scalar ctx.Rql.data
                 (Printf.sprintf "SELECT AS OF %d COUNT(*) FROM orders" sid)))
          sids);
    Alcotest.test_case "consecutive snapshots differ by the refresh batch" `Quick (fun () ->
        let ctx, st, _sids =
          Tpch.Workload.build_history ~sf ~uw:Tpch.Workload.uw30 ~snapshots:3 ()
        in
        let batch = Tpch.Workload.orders_per_snapshot Tpch.Workload.uw30 ~sf:st.Tpch.Dbgen.sf in
        (* orders in snapshot 3 but not in snapshot 2 = the inserted batch *)
        ignore
          (Rql.collate_data ctx ~qs:"SELECT snap_id FROM SnapIds WHERE snap_id >= 2"
             ~qq:"SELECT o_orderkey, current_snapshot() AS sid FROM orders" ~table:"CD");
        let n_orders = Tpch.Schema.scaled sf Tpch.Schema.sf1_orders 100 in
        let intersection =
          E.int_scalar ctx.Rql.meta
            "SELECT COUNT(*) FROM CD a, CD b WHERE a.o_orderkey = b.o_orderkey AND a.sid = 2 \
             AND b.sid = 3"
        in
        Alcotest.(check int) "diff equals refresh batch" batch (n_orders - intersection)) ]

(* --- RF2 against its full-decode model ------------------------------------ *)

(* [Refresh.delete_by_key] as it was before it tested keys in place: a
   projected decode of the key column for every row, a full decode for
   victims, a polymorphic key table. *)
let model_delete_by_key db ~table ~keycol keys =
  let env = Sqldb.Exec.current_env db in
  let tbl = Tpch.Dbgen.find_table env table in
  let kpos = Sqldb.Planner.col_pos tbl keycol in
  let keyset = Hashtbl.create (Array.length keys) in
  Array.iter (fun k -> Hashtbl.replace keyset k ()) keys;
  let victim = function R.Int k -> Hashtbl.mem keyset k | _ -> false in
  let key_only = R.decode_cols (Array.init (kpos + 1) (fun i -> i = kpos)) in
  let decode p ~off ~len =
    let row = key_only p ~off ~len in
    if victim row.(kpos) then R.decode_bytes p ~off ~len else row
  in
  let victims = ref [] in
  Sqldb.Exec.scan_heap env tbl ~decode ~f:(fun rid row ->
      if victim row.(kpos) then victims := (rid, row) :: !victims);
  Sqldb.Db.with_write_txn db (fun txn ->
      Sqldb.Exec.delete_rows txn (Sqldb.Exec.writer env tbl) !victims)

let model_rf2 st db ~count =
  let keys = Tpch.Dbgen.take_oldest_live st count in
  let deleted = model_delete_by_key db ~table:"orders" ~keycol:"o_orderkey" keys in
  ignore (model_delete_by_key db ~table:"lineitem" ~keycol:"l_orderkey" keys);
  deleted

let rf2_model_cases =
  [ Alcotest.test_case "rf2 builds the model's history byte for byte" `Quick (fun () ->
        (* UW60 rewrites the order population in 25 rounds, so the last
           rounds delete from recycled pages; the orders index makes the
           delete order visible in the B+tree's pages *)
        let uw = Tpch.Workload.uw60 in
        let start () =
          let ctx = Rql.create () in
          let st = Tpch.Dbgen.generate ~seed:5 ctx.Rql.data ~sf in
          ignore (E.exec ctx.Rql.data "CREATE INDEX o_key ON orders (o_orderkey)");
          (ctx, st)
        in
        let (mctx, mst), (ctx, st) = (start (), start ()) in
        let count = Tpch.Workload.orders_per_snapshot uw ~sf in
        for round = 1 to 30 do
          let step rf2 ctx st =
            let deleted = rf2 st ctx.Rql.data ~count in
            ignore (Tpch.Refresh.rf1 st ctx.Rql.data ~count);
            ignore (Rql.declare_snapshot ~name:(Printf.sprintf "r%d" round) ctx);
            deleted
          in
          let want = step model_rf2 mctx mst and got = step Tpch.Refresh.rf2 ctx st in
          Alcotest.(check int) (Printf.sprintf "round %d: orders deleted" round) want got;
          Alcotest.(check string)
            (Printf.sprintf "round %d: history digest" round)
            (Tpch.Workload.history_digest mctx.Rql.data)
            (Tpch.Workload.history_digest ctx.Rql.data)
        done) ]

(* --- dates ---------------------------------------------------------------- *)

let date_cases =
  [ Alcotest.test_case "the date table equals the formula on every order day" `Quick (fun () ->
        for d = 0 to Tpch.Data.max_order_day do
          Alcotest.(check string)
            (Printf.sprintf "day %d" d)
            (Tpch.Data.format_day_number d) (Tpch.Data.date_of_day_number d)
        done;
        Alcotest.(check string) "first day" "1992-01-01" (Tpch.Data.date_of_day_number 0);
        Alcotest.(check string) "last day" "1998-08-02"
          (Tpch.Data.date_of_day_number Tpch.Data.max_order_day));
    Alcotest.test_case "a day outside the table raises" `Quick (fun () ->
        List.iter
          (fun d ->
            match Tpch.Data.date_of_day_number d with
            | s -> Alcotest.failf "day %d gave %s" d s
            | exception Invalid_argument _ -> ())
          [ -4; -1; Tpch.Data.max_order_day + 1 ]) ]

let () = Alcotest.run "tpch" [ ("tpch", tests @ rf2_model_cases @ date_cases) ]
