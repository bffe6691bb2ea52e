(* CollateDataIntoIntervals against a naive model of the paper's rule.

   The model keeps, for each Qq row (rows T's index holds equal, like 1
   and 1.0, are one), the intervals opened for it in the order they
   were opened.  An iteration over snapshot [sid] takes the
   Qq rows in order: a row extends the first of its intervals that ends
   at the previous snapshot, and otherwise opens a new interval
   [sid, sid].  T holds one row per interval and only ever grows by
   appending rows of one width, so its heap chain order is the order
   the intervals were opened in.  After every iteration T, read in heap
   order, must equal the model's intervals in opening order: that checks
   the rows and the order of their rids at once.

   Every case runs twice, with PRAGMA incremental off (the naive loop,
   every snapshot's Qq from scratch) and on.  With it on, a hot
   iteration of a row Qq is a delta, and the loop body applies only the
   delta's removed and added rows, netted by key, and patches every
   other open interval's end in place; it falls back to the rule over
   the full row list when the delta cannot say what the rule does.  Both
   runs must match the model after every iteration, with the same
   per-iteration row, insert and update counts.  Small cases pin each
   fallback: a key that gains a row while it has open intervals, a row
   that moves to another page, a repeated snapshot id, k stripes, and T
   changed between SQL-form statements or by a failed iteration. *)

module R = Storage.Record
module E = Sqldb.Engine
module IS = Rql.Iter_stats

(* --- the model --------------------------------------------------------- *)

type model = {
  mutable prev : int option;
  mutable opened : int;
  (* Qq row, as T's index compares it -> its intervals (opening index,
     the row that opened it, start, end), oldest first *)
  intervals : (R.row, (int * R.row * int * int ref) list) Hashtbl.t;
}

let model () = { prev = None; opened = 0; intervals = Hashtbl.create 64 }

(* Rows the index holds equal share a key: an INTEGER-valued REAL is
   its INTEGER. *)
let key row =
  Array.map
    (function R.Real f when Float.is_integer f -> R.Int (int_of_float f) | v -> v)
    row

let model_step m ~sid rows =
  List.iter
    (fun row ->
      let k = key row in
      let ivs = Option.value (Hashtbl.find_opt m.intervals k) ~default:[] in
      match List.find_opt (fun (_, _, _, e) -> Some !e = m.prev) ivs with
      | Some (_, _, _, e) -> e := sid
      | None ->
        Hashtbl.replace m.intervals k (ivs @ [ (m.opened, row, sid, ref sid) ]);
        m.opened <- m.opened + 1)
    rows;
  m.prev <- Some sid

let model_rows m =
  Hashtbl.fold
    (fun _ ivs acc ->
      List.map (fun (i, row, s, e) -> (i, Array.append row [| R.Int s; R.Int !e |])) ivs @ acc)
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

let set_incremental ctx on =
  ignore (E.exec ctx.Rql.data (if on then "PRAGMA incremental=on" else "PRAGMA incremental=off"))

(* What the loop body did in each iteration. *)
let work (its : IS.iteration list) =
  List.map (fun (it : IS.iteration) -> (it.IS.udf_rows, it.IS.udf_inserts, it.IS.udf_updates)) its

let evals (its : IS.iteration list) = List.map (fun (it : IS.iteration) -> it.IS.eval) its

(* Run [case] with PRAGMA incremental off and then on ([case] names its
   own result tables and checks T against the model); both runs must do
   the same work in every iteration.  Returns the incremental run's
   iterations. *)
let both ~label ctx case =
  set_incremental ctx false;
  let naive = case ~label:(label ^ " (naive)") in
  set_incremental ctx true;
  let incr = case ~label:(label ^ " (incremental)") in
  Alcotest.(check (list (triple int int int))) (label ^ ": rows, inserts, updates") (work naive)
    (work incr);
  incr

(* Drive the sequential loop one snapshot at a time, checking T against
   the model after every iteration; returns the snapshot set and the
   run's iterations. *)
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
  (sids, (Rql.finish rs).IS.iterations)

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

(* [stepwise] with incremental off and on; every iteration after the
   first of a one-stripe incremental run is a delta. *)
let checked ~label ctx ~qs ~qq =
  let sids = ref [] in
  let its =
    both ~label ctx (fun ~label ->
        let s, its = stepwise ~label ctx ~qs ~qq ~table:(fresh ()) in
        sids := s;
        its)
  in
  Alcotest.(check (list string)) (label ^ ": modes")
    ("full" :: List.map (fun _ -> "delta") (List.tl its))
    (evals its);
  !sids

let model_tests =
  [ Alcotest.test_case "Qq_int and a duplicate-key Qq across UW7.5-UW60" `Quick (fun () ->
        List.iter
          (fun uw ->
            let ctx = history uw in
            List.iter
              (fun qq -> ignore (checked ~label:(uw.Tpch.Workload.uname ^ " " ^ qq) ctx ~qs:all ~qq))
              [ qq_int; qq_dup ])
          Tpch.Workload.[ uw7_5; uw15; uw30; uw60 ]);
    Alcotest.test_case "snapshot sets that skip, run backwards or repeat a snapshot" `Quick
      (fun () ->
        let ctx = history ~snapshots:6 Tpch.Workload.uw30 in
        List.iter
          (fun (qs, want) ->
            List.iter
              (fun qq ->
                let sids = checked ~label:(qs ^ " " ^ qq) ctx ~qs ~qq in
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
              checked ~label:("vacuumed " ^ qq) ctx
                ~qs:"SELECT snap_id FROM SnapIds WHERE snap_id >= 4" ~qq
            in
            Alcotest.(check (list int)) "surviving snapshots" [ 4; 5; 6 ] sids)
          [ qq_int; qq_dup ]);
    Alcotest.test_case "the SQL form, one statement per snapshot" `Quick (fun () ->
        let ctx = history Tpch.Workload.uw15 in
        List.iter
          (fun qq ->
            ignore
              (both ~label:("SQL form " ^ qq) ctx (fun ~label ->
                   let table = fresh () in
                   let m = model () in
                   List.iter
                     (fun sid ->
                       ignore
                         (E.exec ctx.Rql.meta
                            (Printf.sprintf
                               "SELECT CollateDataIntoIntervals(snap_id, '%s', '%s') FROM SnapIds \
                                WHERE snap_id = %d"
                               (sqlq qq) table sid));
                       model_step m ~sid (qq_rows ctx qq sid);
                       agrees ~label:(Printf.sprintf "%s, snapshot %d" label sid) ctx table m)
                     (Rql.snapshot_set ctx all);
                   match Rql.take_run ctx ~table with
                   | Some run ->
                     Alcotest.(check int) "one run" 5 (List.length run.IS.iterations);
                     run.IS.iterations
                   | None -> Alcotest.fail "no SQL-form run")))
          [ qq_int; qq_dup ]);
    (* Stripe w's deltas are from the snapshot k places earlier: the
       loop body applies the full row list. *)
    Alcotest.test_case "the Domain-parallel loop (~domains:2)" `Quick (fun () ->
        let ctx = history Tpch.Workload.uw30 in
        List.iter
          (fun qq ->
            let its =
              both ~label:("parallel " ^ qq) ctx (fun ~label ->
                  let table = fresh () in
                  let run = Rql.collate_data_into_intervals ~domains:2 ctx ~qs:all ~qq ~table in
                  let m = model () in
                  List.iter
                    (fun sid -> model_step m ~sid (qq_rows ctx qq sid))
                    (Rql.snapshot_set ctx all);
                  agrees ~label ctx table m;
                  run.IS.iterations)
            in
            Alcotest.(check (list string)) "two stripes' modes"
              [ "full"; "full"; "delta"; "delta"; "delta" ] (evals its))
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

(* The SQL-form run that wrote [table], retired. *)
let sql_run ctx table =
  match Rql.take_run ctx ~table with
  | Some run -> run.IS.iterations
  | None -> Alcotest.fail "no SQL-form run"

let stale_tests =
  [ Alcotest.test_case "T edited between two statements of one SQL-form run" `Quick (fun () ->
        let ctx = small_history () in
        let m sql = ignore (E.exec ctx.Rql.meta sql) in
        ignore
          (both ~label:"edited T" ctx (fun ~label ->
               let table = fresh () in
               let run where =
                 m
                   (Printf.sprintf
                      "SELECT CollateDataIntoIntervals(snap_id, 'SELECT u FROM t', '%s') FROM \
                       SnapIds WHERE %s"
                      table where)
               in
               run "snap_id <= 2";
               (* u = 2's interval [1, 2] goes, and (9, 1, 2) takes its slot *)
               m (Printf.sprintf "DELETE FROM %s WHERE u = 2" table);
               m (Printf.sprintf "INSERT INTO %s VALUES (9, 1, 2)" table);
               run "snap_id >= 3";
               (* the run continues (prev = 2): T holds no interval of u = 2
                  that ends at 2, so a new one starts at 3, and the row in
                  the old slot, which the run never wrote, is left as it is *)
               Alcotest.(check (list string)) (label ^ ": T in heap order")
                 [ "1,1,4"; "9,1,2"; "3,1,4"; "4,1,4"; "2,3,4" ]
                 (rendered (t_rows ctx table));
               let its = sql_run ctx table in
               Alcotest.(check int) "one run" 4 (List.length its);
               its)));
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
        ignore
          (both ~label:"failed iteration" ctx (fun ~label ->
               let table = fresh () in
               let run where =
                 E.exec ctx.Rql.meta
                   (Printf.sprintf
                      "SELECT CollateDataIntoIntervals(snap_id, '%s', '%s') FROM SnapIds WHERE %s"
                      (sqlq "SELECT u, s || s AS ss FROM w") table where)
               in
               ignore (run "snap_id <= 2");
               (* snapshot 3 extends u = 1, 2 and 3 before u = 4 fails: its
                  write transaction aborts, and T and the map stay as they
                  were *)
               (match run "snap_id = 3" with
               | _ -> Alcotest.fail "snapshot 3 should fail"
               | exception E.Error _ -> ());
               ignore (run "snap_id >= 4");
               (* snapshot 4 follows snapshot 2; with incremental on, its
                  delta is from snapshot 3 *)
               Alcotest.(check (list string)) (label ^ ": T in heap order")
                 [ "1,aa,1,4"; "2,bb,1,1"; "3,cc,1,4"; "2,bbbb,2,4"; "5,ee,4,4" ]
                 (rendered (t_rows ctx table));
               sql_run ctx table)));
    Alcotest.test_case "T edited in an open transaction before a statement" `Quick (fun () ->
        let ctx = small_history () in
        let m sql = ignore (E.exec ctx.Rql.meta sql) in
        ignore
          (both ~label:"edited in a transaction" ctx (fun ~label ->
               let table = fresh () in
               let run where =
                 m
                   (Printf.sprintf
                      "SELECT CollateDataIntoIntervals(snap_id, 'SELECT u FROM t', '%s') FROM \
                       SnapIds WHERE %s"
                      table where)
               in
               run "snap_id <= 2";
               (* the edits are uncommitted when the run continues: it
                  reads T as the transaction does, as between two
                  autocommitted statements *)
               m "BEGIN";
               m (Printf.sprintf "DELETE FROM %s WHERE u = 2" table);
               m (Printf.sprintf "INSERT INTO %s VALUES (9, 1, 2)" table);
               run "snap_id >= 3";
               m "COMMIT";
               Alcotest.(check (list string)) (label ^ ": T in heap order")
                 [ "1,1,4"; "9,1,2"; "3,1,4"; "4,1,4"; "2,3,4" ]
                 (rendered (t_rows ctx table));
               Alcotest.(check (list string)) (label ^ ": meta db integrity") []
                 (Sqldb.Integrity.check ctx.Rql.meta);
               sql_run ctx table)));
    Alcotest.test_case "an index on end_snapshot created between two statements" `Quick
      (fun () ->
        (* s (k, v): (1, 10) and (2, 20) in snapshot 1, (3, 30) joins in
           2, and k = 1's v is 11 in 3 *)
        let ctx = Rql.create () in
        let e sql = ignore (E.exec ctx.Rql.data sql) in
        e "CREATE TABLE s (k INTEGER, v INTEGER)";
        e "INSERT INTO s VALUES (1, 10), (2, 20)";
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e "INSERT INTO s VALUES (3, 30)";
        ignore (Rql.declare_snapshot ctx);
        e "BEGIN";
        e "UPDATE s SET v = 11 WHERE k = 1";
        ignore (Rql.declare_snapshot ctx);
        let qq = "SELECT k FROM s" in
        let its =
          both ~label:"end_snapshot indexed" ctx (fun ~label ->
              let table = fresh () in
              let m sql = ignore (E.exec ctx.Rql.meta sql) in
              let run where =
                m
                  (Printf.sprintf
                     "SELECT CollateDataIntoIntervals(snap_id, '%s', '%s') FROM SnapIds WHERE %s"
                     qq table where)
              in
              run "snap_id <= 1";
              m (Printf.sprintf "CREATE INDEX %s_e ON %s (end_snapshot)" table table);
              run "snap_id >= 2";
              (* every extension is an UPDATE of end_snapshot that the
                 new index follows *)
              let md = model () in
              List.iter (fun sid -> model_step md ~sid (qq_rows ctx qq sid)) [ 1; 2; 3 ];
              agrees ~label ctx table md;
              Alcotest.(check (list string)) (label ^ ": through the new index")
                [ "1,1,3"; "2,1,3"; "3,2,3" ]
                (rendered
                   (E.query ctx.Rql.meta
                      (Printf.sprintf "SELECT * FROM %s WHERE end_snapshot = 3" table)));
              Alcotest.(check (list string)) (label ^ ": meta db integrity") []
                (Sqldb.Integrity.check ctx.Rql.meta);
              sql_run ctx table)
        in
        (* snapshot 3 applies a delta from 2 *)
        Alcotest.(check (list string)) "modes" [ "full"; "delta"; "delta" ] (evals its)) ]

(* --- the delta and its fallbacks ------------------------------------------ *)

(* A table [d (v, pad)] whose rows fill several pages: [pad] is 300
   bytes, so about a dozen rows share a page. *)
let pages_history steps =
  let ctx = Rql.create () in
  let e sql = ignore (E.exec ctx.Rql.data sql) in
  let pad = String.make 300 'p' in
  e "CREATE TABLE d (v, pad TEXT)";
  List.iter
    (fun v -> e (Printf.sprintf "INSERT INTO d VALUES (%s, '%s')" v pad))
    (List.init 40 (fun i ->
         match i with 0 -> "1" | 30 -> "1.0" | i -> string_of_int (100 + i)));
  ignore (Rql.declare_snapshot ctx);
  List.iter
    (fun step ->
      e "BEGIN";
      List.iter e step;
      ignore (Rql.declare_snapshot ctx))
    steps;
  ctx

let d_rows = "SELECT v FROM d"

(* The rid of the row of [d] where [v] is [value], as of snapshot [sid]. *)
let page_of ctx sid value =
  let env = Sqldb.Exec.snapshot_env ctx.Rql.data sid in
  let tbl = Option.get (Sqldb.Catalog.find_table env.Sqldb.Exec.cat "d") in
  let found = ref [] in
  Storage.Heap.iter_spans env.Sqldb.Exec.read (Storage.Heap.open_existing tbl.Sqldb.Catalog.theap)
    ~f:(fun rid p off len ->
      let row = R.decode_bytes p ~off ~len in
      if R.value_to_string row.(0) = value then found := Storage.Heap.pid_of_rid rid :: !found);
  List.rev !found

let delta_tests =
  [ (* Key 1 has two rows (1 on the first page, 1.0 on the third) and
       gains a third, 1, that takes a deleted row's place on the first
       page.  The rule extends key 1's intervals with its first two rows
       in scan order and opens one for the third, 1.0, which the delta
       does not hold: the loop body applies the full row list. *)
    Alcotest.test_case "a key with open intervals gains a row" `Quick (fun () ->
        let ctx =
          pages_history
            [ [ "DELETE FROM d WHERE v = 105"; "INSERT INTO d VALUES (1, '" ^ String.make 300 'q' ^ "')" ] ]
        in
        Alcotest.(check bool) "key 1 spans a re-read and an unchanged page" true
          (match page_of ctx 1 "1", page_of ctx 1 "1.0" with
          | [ a ], [ b ] -> a <> b
          | _ -> false);
        Alcotest.(check bool) "the new row is on the first page" true
          (page_of ctx 2 "1" = List.init 2 (fun _ -> List.hd (page_of ctx 1 "1")));
        ignore (checked ~label:"gained key" ctx ~qs:all ~qq:d_rows));
    (* Key 1 gains a row (snapshot 2, applied by the full rule), then
       loses one (snapshot 3, a delta): its last open interval in rid
       order closes, and the first two extend. *)
    Alcotest.test_case "a key with open intervals loses a row" `Quick (fun () ->
        let ctx =
          pages_history
            [ [ "INSERT INTO d VALUES (1, 'short')" ]; [ "DELETE FROM d WHERE pad = 'short'" ] ]
        in
        ignore (checked ~label:"lost key" ctx ~qs:all ~qq:d_rows));
    (* The row grows past its page's free space and moves; the Qq's
       rows are the same multiset in both snapshots. *)
    Alcotest.test_case "a row moves to another page" `Quick (fun () ->
        let ctx =
          pages_history
            [ [ "UPDATE d SET pad = '" ^ String.make 1500 'm' ^ "' WHERE v = 103" ];
              [ "UPDATE d SET v = 1.0 WHERE v = 104" ] ]
        in
        Alcotest.(check bool) "row 103 moved" true (page_of ctx 1 "103" <> page_of ctx 2 "103");
        ignore (checked ~label:"moved row" ctx ~qs:all ~qq:d_rows));
    (* Snapshots 1, 3, 1, 2: u = 2 is in 1 and 2 but not in 3.  Its first
       interval closes at 1, the second snapshot 1 opens another, and at
       snapshot 2 the rule extends the first (lower rid) one. *)
    Alcotest.test_case "a snapshot id the run applied before" `Quick (fun () ->
        let ctx = small_history () in
        ignore (E.exec ctx.Rql.data "BEGIN");
        ignore (E.exec ctx.Rql.data "DELETE FROM t WHERE u = 2");
        ignore (Rql.declare_snapshot ctx);
        let sids =
          checked ~label:"repeated id" ctx
            ~qs:
              "SELECT snap_id FROM SnapIds WHERE snap_id IN (1, 5) UNION ALL SELECT snap_id FROM \
               SnapIds WHERE snap_id IN (1, 2)"
            ~qq:"SELECT u FROM t"
        in
        Alcotest.(check (list int)) "snapshot set" [ 1; 5; 1; 2 ] sids) ]

let () =
  Alcotest.run "intervals"
    [ ("model", model_tests); ("stale", stale_tests); ("delta", delta_tests) ]
