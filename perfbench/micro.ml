(* Per-layer probes of the traced run, run after the measured phase on
   the workload's own fixture: heap scan and record decode per row,
   archive page fetch per page (snapshot-cache hit and miss), and
   B+tree probes through a snapshot read context.  Each probe repeats
   [reps] times and reports the median. *)

let reps = 5

let median_of f = Util.median (List.init reps (fun _ -> f ()))

let orders_heap read =
  match Sqldb.Catalog.find_table (Sqldb.Catalog.load read) "orders" with
  | Some t -> Storage.Heap.open_existing t.Sqldb.Catalog.theap
  | None -> invalid_arg "Micro: no orders table"

let snapshot_read retro sid = Retro.read_ctx retro (Retro.build_spt retro sid)

(* Seconds for one full [Heap.iter] that does not decode. *)
let scan_s read heap =
  let t0 = Util.now () in
  Storage.Heap.iter read heap ~f:(fun _ _ -> ());
  Util.now () -. t0

type rows = { scan_ns : float; decode_ns : float; alloc_words : float }

(* [Heap.iter] with no decode, then [Record.decode_row] over the same
   slots, on the current state's orders. *)
let per_row db =
  let read = Sqldb.Db.read_current db in
  let heap = orders_heap read in
  let slots = ref [] in
  Storage.Heap.iter read heap ~f:(fun _ s -> slots := s :: !slots);
  let slots = Array.of_list !slots in
  let n = float_of_int (Array.length slots) in
  let scan_ns = median_of (fun () -> scan_s read heap /. n *. 1e9) in
  let decode () =
    let w0 = Gc.minor_words () in
    let t0 = Util.now () in
    Array.iter (fun s -> ignore (Sys.opaque_identity (Storage.Record.decode_row s))) slots;
    (Util.now () -. t0, Gc.minor_words () -. w0)
  in
  let runs = List.init reps (fun _ -> decode ()) in
  { scan_ns;
    decode_ns = Util.median (List.map (fun (t, _) -> t /. n *. 1e9) runs);
    alloc_words = Util.median (List.map (fun (_, w) -> w /. n) runs) }

(* Archive fetch cost per page of [sid]'s orders chain: a scan through
   the snapshot read context after [Retro.clear_cache] (miss) and again
   right after (hit, when the cache holds the chain), each minus the
   same scan over the current state, which fetches nothing. *)
let fetch db retro sid =
  let cur = Sqldb.Db.read_current db in
  let cur_heap = orders_heap cur in
  let cur_pages = float_of_int (Storage.Heap.page_count cur cur_heap) in
  let read = snapshot_read retro sid in
  let heap = orders_heap read in
  let pages = float_of_int (Storage.Heap.page_count read heap) in
  let base = median_of (fun () -> scan_s cur cur_heap /. cur_pages) in
  let pair () =
    Retro.clear_cache retro;
    let miss = scan_s read heap /. pages in
    let hit = scan_s read heap /. pages in
    (miss, hit)
  in
  let runs = List.init reps (fun _ -> pair ()) in
  let us x = (x -. base) *. 1e6 in
  ( us (Util.median (List.map snd runs)),
    us (Util.median (List.map fst runs)) )

(* Mean [Btree.lookup] time on the o_orderkey index through the newest
   snapshot's read context, over 2000 live keys drawn from [seed], after
   one warming pass.  The RQL fixtures have no such index: it is created
   on the current state and a snapshot that holds it is declared.  Runs
   last, after everything else has used the fixture. *)
let btree_lookup_us ~seed (fx : Fixture.t) =
  let ctx = fx.Fixture.ctx and retro = fx.Fixture.retro and st = fx.Fixture.st in
  let find read = Sqldb.Catalog.find_index (Sqldb.Catalog.load read) Fixture.orderkey_index in
  if find (Sqldb.Db.read_current ctx.Rql.data) = None then begin
    ignore
      (Sqldb.Engine.exec ctx.Rql.data
         (Printf.sprintf "CREATE INDEX %s ON orders (o_orderkey)" Fixture.orderkey_index));
    ignore (Rql.declare_snapshot ctx)
  end;
  let read = snapshot_read retro (Retro.snapshot_count retro) in
  match find read with
  | None -> invalid_arg "Micro.btree_lookup_us: no orders index"
  | Some idx ->
    let bt = Storage.Btree.open_existing idx.Sqldb.Catalog.iroot in
    let lo = st.Tpch.Dbgen.live.(st.Tpch.Dbgen.live_head)
    and hi = st.Tpch.Dbgen.live.(st.Tpch.Dbgen.live_tail - 1) in
    let rng = Random.State.make [| seed; 0xb7 |] in
    let keys = Array.init 2000 (fun _ -> lo + Random.State.int rng (hi - lo + 1)) in
    let pass () =
      let t0 = Util.now () in
      Array.iter
        (fun k -> Storage.Btree.lookup read bt [| Storage.Record.Int k |] ~f:(fun _ -> ()))
        keys;
      (Util.now () -. t0) /. float_of_int (Array.length keys) *. 1e6
    in
    ignore (pass ());
    median_of pass
