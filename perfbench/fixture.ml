(* Benchmark fixtures: TPC-H at SF 0.01 plus a UW30 snapshot history.

   The history is driven round by round here (RF2, RF1, COMMIT WITH
   SNAPSHOT, the rounds of Tpch.Workload.run) so that each round can be
   timed and so that the live order-key window at every declared
   snapshot is known: RF1 inserts consecutive fresh keys and RF2
   deletes the lowest live ones, so the orders live at a snapshot are
   exactly the keys in [lo, hi]. *)

module D = Tpch.Dbgen

let sf = 0.01
let uw = Tpch.Workload.uw30
let orders_per_round = Tpch.Workload.orders_per_snapshot uw ~sf

type round = {
  sid : int;
  lo : int; (* lowest live order key at [sid] *)
  hi : int; (* highest live order key at [sid] *)
  key0 : int; (* first order key inserted by this round's RF1 *)
  round_s : float;
  rf1_s : float;
  rf2_s : float;
  declare_s : float;
  cow_pages : int; (* retro.cow_archived delta *)
  page_writes : int; (* storage.db_page_writes delta *)
  archive_bytes : int; (* Pagelog + Maplog bytes appended *)
}

type t = {
  ctx : Rql.ctx;
  st : D.state;
  retro : Retro.t;
  mutable rounds : round list; (* newest first *)
  generate_s : float;
  setup_s : float;
}

(* Maplog entries are (page id, Pagelog offset) pairs: 16 bytes each
   as two 64-bit integers. *)
let maplog_entry_bytes = 16

let archive_bytes retro =
  Retro.pagelog_size_bytes retro + (maplog_entry_bytes * Retro.maplog_length retro)

(* One UW30 round on the root session: RF2, RF1, then
   Rql.declare_snapshot (the COMMIT WITH SNAPSHOT).  The counters read
   here are incremented only by the writing domain. *)
let round ctx st retro i =
  let cow0 = Obs.Scope.get Storage.Stats.c_cow_archived in
  let pw0 = Obs.Scope.get Storage.Stats.c_db_page_writes in
  let ab0 = archive_bytes retro in
  let key0 = st.D.next_orderkey in
  let (rf2_s, rf1_s, (sid, declare_s)), round_s =
    Span.timed "tpch.history_round" (fun () ->
        let (), rf2_s =
          Span.timed "tpch.rf2" (fun () ->
              ignore (Tpch.Refresh.rf2 st ctx.Rql.data ~count:orders_per_round))
        in
        let (), rf1_s =
          Span.timed "tpch.rf1" (fun () ->
              ignore (Tpch.Refresh.rf1 st ctx.Rql.data ~count:orders_per_round))
        in
        let decl =
          Span.timed "retro.declare" (fun () ->
              Rql.declare_snapshot ~name:(Printf.sprintf "%s-%d" uw.Tpch.Workload.uname i) ctx)
        in
        (rf2_s, rf1_s, decl))
  in
  { sid;
    lo = st.D.live.(st.D.live_head);
    hi = st.D.live.(st.D.live_tail - 1);
    key0;
    round_s;
    rf1_s;
    rf2_s;
    declare_s;
    cow_pages = Obs.Scope.get Storage.Stats.c_cow_archived - cow0;
    page_writes = Obs.Scope.get Storage.Stats.c_db_page_writes - pw0;
    archive_bytes = archive_bytes retro - ab0 }

let orderkey_index = "idx_o_orderkey"

(* Generate the data, build the indexes and build the UW history: the
   work [setup_s] times.  The machine-speed kernel runs once before each
   round, into [calib], and is left out of [setup_s]. *)
let build ~calib ~seed ~snapshots ~orders_index =
  let t0 = Util.now () in
  let calib_s = ref 0. in
  let ctx = Rql.create () in
  let st, generate_s = Span.timed "tpch.generate" (fun () -> D.generate ~seed ctx.Rql.data ~sf) in
  if orders_index then
    ignore
      (Sqldb.Engine.exec ctx.Rql.data
         (Printf.sprintf "CREATE INDEX %s ON orders (o_orderkey)" orderkey_index));
  let retro = Sqldb.Db.retro_exn ctx.Rql.data in
  let rounds = ref [] in
  for i = 1 to snapshots do
    calib_s := !calib_s +. Calib.checkpoint ~reps:1 calib;
    rounds := round ctx st retro i :: !rounds
  done;
  { ctx; st; retro; rounds = !rounds; generate_s; setup_s = Util.now () -. t0 -. !calib_s }

(* Set up [reps] times from the same seed and keep the last fixture:
   [setup_s] is reported as the median, so one slow set-up does not
   move it.  Returns the kept fixture, every set-up time and every
   history round (for the round-time statistics). *)
let build_median ~calib ~reps ~seed ~snapshots ~orders_index =
  let rec go k times rounds =
    let fx = build ~calib ~seed ~snapshots ~orders_index in
    let times = fx.setup_s :: times and rounds = fx.rounds @ rounds in
    if k <= 1 then (fx, times, rounds)
    else begin
      Gc.full_major ();
      go (k - 1) times rounds
    end
  in
  go reps [] []

(* Encoded bytes of the user rows a list of rounds inserted (RF1's new
   orders and their lineitems).  Rounds are read back in windows of at
   most 40: every row inserted inside a window is still live AS OF the
   window's last snapshot, because RF2 takes about 50 rounds to reach a
   key.  Untimed. *)
let user_bytes fx (rounds : round list) =
  let rounds = List.sort (fun a b -> compare a.sid b.sid) rounds in
  let db = fx.ctx.Rql.data in
  let bytes_of sql =
    List.fold_left
      (fun acc row -> acc + String.length (Storage.Record.encode_row row))
      0 (Sqldb.Engine.query db sql)
  in
  let window (first : round) (last : round) =
    bytes_of
      (Printf.sprintf "SELECT AS OF %d * FROM orders WHERE o_orderkey >= %d AND o_orderkey <= %d"
         last.sid first.key0 last.hi)
    + bytes_of
        (Printf.sprintf
           "SELECT AS OF %d * FROM lineitem WHERE l_orderkey >= %d AND l_orderkey <= %d"
           last.sid first.key0 last.hi)
  in
  let rec go acc = function
    | [] -> acc
    | first :: _ as rs ->
      let rec split i win = function
        | r :: rest when i < 40 -> split (i + 1) (r :: win) rest
        | rest -> (win, rest)
      in
      let win, rest = split 0 [] rs in
      go (acc + window first (List.hd win)) rest
  in
  go 0 rounds

let archive_bytes_per_user_byte fx rounds =
  Util.ratio_i (List.fold_left (fun a r -> a + r.archive_bytes) 0 rounds) (user_bytes fx rounds)
