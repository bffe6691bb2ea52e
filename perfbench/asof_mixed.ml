(* asof_mixed: a writer and an AS OF reader on two domains over one
   shared core, with the snapshot page cache pinned below the working
   set (see README.md). *)

let cache_pages = 256
let newest = 10 (* half the lookups go to the 10 newest snapshots *)
let key_margin = 2000 (* keys drawn this far outside the live window miss *)

(* The writer is paced (open loop): one round is due every
   [writer_period_s], so the history grows at the same rate on every
   run and the reader's cost, which grows with the history, does not
   follow the writer's speed.  A round that starts late starts at once. *)
let writer_period_s = 0.25

(* Live windows by snapshot id, published by the writer after each
   declare; the reader only picks published snapshots. *)
type windows = { mu : Mutex.t; mutable w : (int * int) array; mutable n : int }

let publish ws sid lo hi =
  Mutex.lock ws.mu;
  if sid > Array.length ws.w then begin
    let a = Array.make (2 * sid) (0, 0) in
    Array.blit ws.w 0 a 0 (Array.length ws.w);
    ws.w <- a
  end;
  ws.w.(sid - 1) <- (lo, hi);
  ws.n <- max ws.n sid;
  Mutex.unlock ws.mu

let lookup ws =
  Mutex.lock ws.mu;
  let n = ws.n and w = ws.w in
  Mutex.unlock ws.mu;
  (n, w)

let query_text sid key =
  Printf.sprintf "SELECT AS OF %d o_totalprice, o_orderstatus FROM orders WHERE o_orderkey = %d"
    sid key

type reader_op = {
  lat_s : float;
  ok : bool;
  traced : bool;
  parse_s : float;
  prepare_s : float;
  exec_s : float;
  spt_s : float;
  alloc_bytes : float;
  minor_words : float;
}

type result = {
  reads : reader_op list;
  rounds : Fixture.round list;
  writer_late_s : float; (* how far the writer fell behind its schedule, at most *)
  reader_k : Util.counters; (* reader-session scope delta: exact *)
  peak_mb : float;
}

let drive ~seed ~seconds ~trace (fx : Fixture.t) =
  let ctx = fx.Fixture.ctx and retro = fx.Fixture.retro in
  Retro.set_cache_pages retro cache_pages;
  let ws = { mu = Mutex.create (); w = [||]; n = 0 } in
  List.iter (fun (r : Fixture.round) -> publish ws r.sid r.lo r.hi) (List.rev fx.Fixture.rounds);
  let stop = Atomic.make false in
  let first_round = List.length fx.Fixture.rounds + 1 in
  let peak = ref (Util.heap_mb ()) in
  let writer () =
    let t0 = Util.now () in
    let rec go i acc peak_w late =
      let due = t0 +. (float_of_int (i - first_round) *. writer_period_s) in
      let wait = due -. Util.now () in
      if wait > 0. then Unix.sleepf wait;
      if Atomic.get stop then (List.rev acc, peak_w, late)
      else begin
        Util.assert_cpu_only ();
        let late = Float.max late (-.wait) in
        let r = Fixture.round ctx fx.Fixture.st retro i in
        publish ws r.sid r.lo r.hi;
        go (i + 1) (r :: acc) (Float.max peak_w (Util.heap_mb ())) late
      end
    in
    go first_round [] 0. 0.
  in
  let w = Domain.spawn writer in
  let sess = Sqldb.Session.create ctx.Rql.data in
  let rng = Random.State.make [| seed; 0xa50f |] in
  let k0 = Util.counters_of (Sqldb.Session.scope sess) in
  let deadline = Util.now () +. seconds in
  let reads = ref [] and i = ref 0 in
  (match
     while Util.now () < deadline do
       Util.assert_cpu_only ();
       let n, win = lookup ws in
       let sid =
         if Random.State.bool rng then n - Random.State.int rng (min newest n)
         else 1 + Random.State.int rng n
       in
       let lo, hi = win.(sid - 1) in
       let key = max 1 (lo - key_margin + Random.State.int rng (hi - lo + 1 + (2 * key_margin))) in
       let traced = trace && !i mod 2 = 0 in
       let a0 = Gc.allocated_bytes () and w0 = Gc.minor_words () in
       let t0 = Util.now () in
       let outcome =
         match
           if traced then
             Span.with_span "asof.point_lookup" (fun () -> Sql_path.run sess (query_text sid key))
           else Span.without (fun () -> Sql_path.run sess (query_text sid key))
         with
         | r -> Some r
         | exception (Sqldb.Engine.Error _ | Retro.Snapshot_damaged _) -> None
       in
       let lat_s = Util.now () -. t0 in
       let alloc_bytes = Gc.allocated_bytes () -. a0 and minor_words = Gc.minor_words () -. w0 in
       let spt_s =
         if traced then snd (Span.timed "retro.build_spt" (fun () -> Retro.build_spt retro sid))
         else 0.
       in
       let live = lo <= key && key <= hi in
       let op =
         match outcome with
         | Some (res, parse_s, prepare_s, exec_s) ->
           let ok = List.length res.Sqldb.Engine.rows = if live then 1 else 0 in
           { lat_s; ok; traced; parse_s; prepare_s; exec_s; spt_s; alloc_bytes; minor_words }
         | None ->
           { lat_s; ok = false; traced; parse_s = 0.; prepare_s = 0.; exec_s = 0.; spt_s;
             alloc_bytes; minor_words }
       in
       reads := op :: !reads;
       if !i mod 64 = 0 then peak := Float.max !peak (Util.heap_mb ());
       incr i
     done
   with
  | () -> Atomic.set stop true
  | exception e ->
    Atomic.set stop true;
    ignore (Domain.join w);
    raise e);
  let reader_k = Util.delta ~before:k0 ~after:(Util.counters_of (Sqldb.Session.scope sess)) in
  let rounds, peak_w, writer_late_s = Domain.join w in
  Sqldb.Session.close sess;
  { reads = List.rev !reads; rounds; writer_late_s; reader_k; peak_mb = Float.max !peak peak_w }
