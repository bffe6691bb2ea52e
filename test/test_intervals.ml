(* CollateDataIntoIntervals against a naive model of the paper's rule.

   The model keeps, for each Qq row, the intervals opened for it in the
   order they were opened.  An iteration over snapshot [sid] takes the
   Qq rows in order: a row extends the first of its intervals that ends
   at the previous snapshot, and otherwise opens a new interval
   [sid, sid].  T holds one row per interval and only ever grows by
   appending rows of one width, so its heap chain order is the order
   the intervals were opened in.  After every iteration T, read in heap
   order, must equal the model's intervals in opening order: that checks
   the rows and the order of their rids at once.

   The loop body finds the interval to extend in a map it keeps beside
   T.  The last tests change T, or fail an iteration, between SQL-form
   invocations of one run: the map must not go stale. *)

module R = Storage.Record
module E = Sqldb.Engine

(* --- the model --------------------------------------------------------- *)

type model = {
  mutable prev : int option;
  mutable opened : int;
  (* Qq row -> its intervals (opening index, start, end), oldest first *)
  intervals : (R.row, (int * int * int ref) list) Hashtbl.t;
}

let model () = { prev = None; opened = 0; intervals = Hashtbl.create 64 }

let model_step m ~sid rows =
  List.iter
    (fun row ->
      let ivs = Option.value (Hashtbl.find_opt m.intervals row) ~default:[] in
      match List.find_opt (fun (_, _, e) -> Some !e = m.prev) ivs with
      | Some (_, _, e) -> e := sid
      | None ->
        Hashtbl.replace m.intervals row (ivs @ [ (m.opened, sid, ref sid) ]);
        m.opened <- m.opened + 1)
    rows;
  m.prev <- Some sid

let model_rows m =
  Hashtbl.fold
    (fun row ivs acc -> List.map (fun (i, s, e) -> (i, Array.append row [| R.Int s; R.Int !e |])) ivs @ acc)
    m.intervals []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.map snd

(* --- comparing T with the model ---------------------------------------- *)

let render (row : R.row) = String.concat "," (List.map R.value_to_string (Array.to_list row))
let rendered rows = List.map render rows

(* T in heap chain order. *)
let t_rows ctx table = E.query ctx.Rql.meta ("SELECT * FROM " ^ table)

(* Qq's rows in snapshot [sid], in the order the loop body sees them. *)
let qq_rows ctx qq sid =
  let prefix = "SELECT " in
  let n = String.length prefix in
  assert (String.sub qq 0 n = prefix);
  E.query ctx.Rql.data
    (Printf.sprintf "SELECT AS OF %d %s" sid (String.sub qq n (String.length qq - n)))

let agrees ~label ctx table m =
  Alcotest.(check (list string)) label (rendered (model_rows m)) (rendered (t_rows ctx table))

(* Drive the sequential loop one snapshot at a time, checking T against
   the model after every iteration. *)
let stepwise ~label ctx ~qs ~qq ~table =
  let sids = Rql.snapshot_set ctx qs in
  let rs = Rql.make_run ctx ~kind:Rql.Intervals ~qq ~table () in
  let m = model () in
  List.iteri
    (fun i sid ->
      Rql.step rs ~sid;
      model_step m ~sid (qq_rows ctx qq sid);
      agrees ~label:(Printf.sprintf "%s, iteration %d (snapshot %d)" label (i + 1) sid) ctx table m)
    sids;
  sids

let qq_int = "SELECT o_orderkey, o_custkey FROM orders"

(* o_orderstatus has three values: every key has hundreds of rows, some
   on pages a round changes and some on pages it leaves alone. *)
let qq_dup = "SELECT o_orderstatus FROM orders"

let history ?(snapshots = 5) uw =
  let ctx, _, _ = Tpch.Workload.build_history ~sf:0.002 ~uw ~snapshots () in
  ctx

let all = "SELECT snap_id FROM SnapIds"

let counter = ref 0

(* A fresh result table per run: T's pages then come from the end of
   the file, so rid order is opening order too. *)
let fresh () =
  incr counter;
  Printf.sprintf "I%d" !counter

let sqlq s = String.concat "''" (String.split_on_char '\'' s)

let model_tests =
  [ Alcotest.test_case "Qq_int and a duplicate-key Qq across UW7.5-UW60" `Quick (fun () ->
        List.iter
          (fun uw ->
            let ctx = history uw in
            List.iter
              (fun qq ->
                ignore
                  (stepwise ~label:(uw.Tpch.Workload.uname ^ " " ^ qq) ctx ~qs:all ~qq
                     ~table:(fresh ())))
              [ qq_int; qq_dup ])
          Tpch.Workload.[ uw7_5; uw15; uw30; uw60 ]);
    Alcotest.test_case "snapshot sets that skip, run backwards or repeat a snapshot" `Quick
      (fun () ->
        let ctx = history ~snapshots:6 Tpch.Workload.uw30 in
        List.iter
          (fun (qs, want) ->
            List.iter
              (fun qq ->
                let sids = stepwise ~label:(qs ^ " " ^ qq) ctx ~qs ~qq ~table:(fresh ()) in
                Alcotest.(check (list int)) ("snapshot set " ^ qs) want sids)
              [ qq_int; qq_dup ])
          [ ("SELECT snap_id FROM SnapIds WHERE snap_id % 2 = 1", [ 1; 3; 5 ]);
            ("SELECT snap_id FROM SnapIds ORDER BY snap_id DESC", [ 6; 5; 4; 3; 2; 1 ]);
            ( "SELECT snap_id FROM SnapIds WHERE snap_id <= 3 UNION ALL SELECT snap_id FROM \
               SnapIds WHERE snap_id >= 3",
              [ 1; 2; 3; 3; 4; 5; 6 ] );
            ( "SELECT snap_id FROM SnapIds UNION ALL SELECT snap_id FROM SnapIds WHERE snap_id = 2",
              [ 1; 2; 3; 4; 5; 6; 2 ] ) ]);
    Alcotest.test_case "after VACUUM SNAPSHOTS, over the surviving snapshots" `Quick (fun () ->
        let ctx = history ~snapshots:6 Tpch.Workload.uw60 in
        ignore (E.exec ctx.Rql.data "VACUUM SNAPSHOTS KEEPING LAST 3");
        List.iter
          (fun qq ->
            let sids =
              stepwise ~label:("vacuumed " ^ qq) ctx ~qs:"SELECT snap_id FROM SnapIds WHERE snap_id >= 4"
                ~qq ~table:(fresh ())
            in
            Alcotest.(check (list int)) "surviving snapshots" [ 4; 5; 6 ] sids)
          [ qq_int; qq_dup ]);
    Alcotest.test_case "the SQL form, one statement per snapshot" `Quick (fun () ->
        let ctx = history Tpch.Workload.uw15 in
        List.iter
          (fun qq ->
            let table = fresh () in
            let m = model () in
            List.iter
              (fun sid ->
                ignore
                  (E.exec ctx.Rql.meta
                     (Printf.sprintf
                        "SELECT CollateDataIntoIntervals(snap_id, '%s', '%s') FROM SnapIds WHERE \
                         snap_id = %d"
                        (sqlq qq) table sid));
                model_step m ~sid (qq_rows ctx qq sid);
                agrees ~label:(Printf.sprintf "SQL form %s, snapshot %d" qq sid) ctx table m)
              (Rql.snapshot_set ctx all);
            match Rql.take_run ctx ~table with
            | Some run ->
              Alcotest.(check int) "one run" 5 (List.length run.Rql.Iter_stats.iterations)
            | None -> Alcotest.fail "no SQL-form run")
          [ qq_int; qq_dup ]);
    Alcotest.test_case "the Domain-parallel loop (~domains:2)" `Quick (fun () ->
        let ctx = history Tpch.Workload.uw30 in
        List.iter
          (fun qq ->
            let table = fresh () in
            ignore (Rql.collate_data_into_intervals ~domains:2 ctx ~qs:all ~qq ~table);
            let m = model () in
            List.iter (fun sid -> model_step m ~sid (qq_rows ctx qq sid)) (Rql.snapshot_set ctx all);
            agrees ~label:("parallel " ^ qq) ctx table m)
          [ qq_int; qq_dup ]) ]

(* --- the map cannot go stale -------------------------------------------- *)

(* u in {1..4} in each of four snapshots. *)
let small_history () =
  let ctx = Rql.create () in
  let e sql = ignore (E.exec ctx.Rql.data sql) in
  e "CREATE TABLE t (u INTEGER)";
  e "INSERT INTO t VALUES (1), (2), (3), (4)";
  for _ = 1 to 4 do
    ignore (Rql.declare_snapshot ctx)
  done;
  ctx

let stale_tests =
  [ Alcotest.test_case "T edited between two statements of one SQL-form run" `Quick (fun () ->
        let ctx = small_history () in
        let m sql = ignore (E.exec ctx.Rql.meta sql) in
        let run where =
          m
            ("SELECT CollateDataIntoIntervals(snap_id, 'SELECT u FROM t', 'T') FROM SnapIds WHERE "
           ^ where)
        in
        run "snap_id <= 2";
        (* u = 2's interval [1, 2] goes, and (9, 1, 2) takes its slot *)
        m "DELETE FROM T WHERE u = 2";
        m "INSERT INTO T VALUES (9, 1, 2)";
        run "snap_id >= 3";
        (* the run continues (prev = 2): T holds no interval of u = 2
           that ends at 2, so a new one starts at 3, and the row in the
           old slot, which the run never wrote, is left as it is *)
        Alcotest.(check (list string)) "T in heap order"
          [ "1,1,4"; "9,1,2"; "3,1,4"; "4,1,4"; "2,3,4" ]
          (rendered (t_rows ctx "T"));
        match Rql.take_run ctx ~table:"T" with
        | Some run -> Alcotest.(check int) "one run" 4 (List.length run.Rql.Iter_stats.iterations)
        | None -> Alcotest.fail "no SQL-form run");
    Alcotest.test_case "an iteration that fails, then a continuing statement" `Quick (fun () ->
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        e "CREATE TABLE w (u INTEGER, s TEXT)";
        e "INSERT INTO w VALUES (1, 'a'), (2, 'b'), (3, 'c')";
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e "UPDATE w SET s = 'bb' WHERE u = 2";
        ignore (Rql.declare_snapshot ctx);
        (* u = 4's doubled text does not fit in a page of T *)
        e "BEGIN";
        e (Printf.sprintf "INSERT INTO w VALUES (4, '%s')" (String.make 2500 'x'));
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e "DELETE FROM w WHERE u = 4";
        e "INSERT INTO w VALUES (5, 'e')";
        ignore (Rql.declare_snapshot ctx);
        let run where =
          E.exec ctx.Rql.meta
            (Printf.sprintf
               "SELECT CollateDataIntoIntervals(snap_id, '%s', 'F') FROM SnapIds WHERE %s"
               (sqlq "SELECT u, s || s AS ss FROM w") where)
        in
        ignore (run "snap_id <= 2");
        (* snapshot 3 extends u = 1, 2 and 3 before u = 4 fails: its
           write transaction aborts, and T and the map stay as they were *)
        (match run "snap_id = 3" with
        | _ -> Alcotest.fail "snapshot 3 should fail"
        | exception E.Error _ -> ());
        ignore (run "snap_id >= 4");
        (* snapshot 4 follows snapshot 2 *)
        Alcotest.(check (list string)) "T in heap order"
          [ "1,aa,1,4"; "2,bb,1,1"; "3,cc,1,4"; "2,bbbb,2,4"; "5,ee,4,4" ]
          (rendered (t_rows ctx "F"))) ]

let () = Alcotest.run "intervals" [ ("model", model_tests); ("stale", stale_tests) ]
