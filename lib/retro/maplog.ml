(* Maplog: the log-structured list of (page id -> Pagelog location)
   mappings (paper §4, [23]).  A mapping is appended when a page's
   pre-state is copied out; a snapshot declaration records the current
   log position so that SPT(S) can be constructed by scanning the suffix
   that starts at S's position, taking the first mapping seen for each
   page.  Pages with no mapping in the suffix are shared with the current
   database. *)

type entry = { pid : int; pl_off : int }

type boundary = {
  pos : int;      (* maplog position at declaration *)
  db_pages : int; (* database size (pages) at declaration *)
  ts : float;     (* declaration timestamp *)
}

type t = {
  mutable entries : entry array;
  mutable n_entries : int;
  mutable boundaries : boundary array; (* index = snapshot id - 1 *)
  mutable n_boundaries : int;
  (* Lowest snapshot id still readable.  VACUUM drops a *prefix* of the
     history: ids below this are gone (their boundary slots retain only
     the declaration timestamp for introspection), ids at or above it
     keep their identity — snapshot numbering never shifts. *)
  mutable first_live : int;
  (* Skippy-style skip levels ([23]): memoized first-occurrence-per-page
     digests of fixed-size entry segments.  The log is append-only, so a
     full segment's digest never changes. *)
  mutable skippy : bool;
  l1 : (int, entry array) Hashtbl.t; (* segment index -> digest *)
  l2 : (int, entry array) Hashtbl.t;
  (* Digests are memoized lazily by read-side scans, so concurrent SPT
     builds race on the two tables above without this lock.  Appends and
     declarations stay outside it: they are serialized by the pager's
     writer lock, and scans only touch the immutable prefix. *)
  dg_mu : Mutex.t;
}

(* L1 digests cover [l1_size] raw entries; L2 digests cover [l2_factor]
   L1 segments. *)
let l1_size = 1024
let l2_factor = 16

let create () =
  { entries = Array.make 256 { pid = 0; pl_off = 0 };
    n_entries = 0;
    boundaries = Array.make 16 { pos = 0; db_pages = 0; ts = 0. };
    n_boundaries = 0;
    first_live = 1;
    skippy = true;
    l1 = Hashtbl.create 64;
    l2 = Hashtbl.create 16;
    dg_mu = Mutex.create () }

let set_skippy t on = t.skippy <- on

(* Push onto the entry / boundary arrays, doubling them when full. *)
let push_entry t e =
  if t.n_entries >= Array.length t.entries then begin
    let a = Array.make (2 * Array.length t.entries) e in
    Array.blit t.entries 0 a 0 t.n_entries;
    t.entries <- a
  end;
  t.entries.(t.n_entries) <- e;
  t.n_entries <- t.n_entries + 1

let push_boundary t b =
  if t.n_boundaries >= Array.length t.boundaries then begin
    let a = Array.make (2 * Array.length t.boundaries) b in
    Array.blit t.boundaries 0 a 0 t.n_boundaries;
    t.boundaries <- a
  end;
  t.boundaries.(t.n_boundaries) <- b;
  t.n_boundaries <- t.n_boundaries + 1

let append t e =
  push_entry t e;
  Obs.Scope.incr Storage.Stats.c_maplog_appends

(* Record a snapshot declaration; returns the new snapshot id (1-based). *)
let declare t ~db_pages ~ts =
  push_boundary t { pos = t.n_entries; db_pages; ts };
  t.n_boundaries

let snapshot_count t = t.n_boundaries

let first_live t = t.first_live

let boundary t snap_id =
  if snap_id < 1 || snap_id > t.n_boundaries then
    invalid_arg (Printf.sprintf "Maplog.boundary: unknown snapshot %d" snap_id);
  if snap_id < t.first_live then
    invalid_arg (Printf.sprintf "Maplog.boundary: snapshot %d has been vacuumed" snap_id);
  t.boundaries.(snap_id - 1)

(* Boundary slot without the vacuumed guard: positions of vacuumed
   snapshots are stale (compaction shifts only live boundaries), but the
   declaration timestamp stays valid — introspection (sys_snapshots)
   reads it through this. *)
let raw_boundary t snap_id =
  if snap_id < 1 || snap_id > t.n_boundaries then
    invalid_arg (Printf.sprintf "Maplog.raw_boundary: unknown snapshot %d" snap_id);
  t.boundaries.(snap_id - 1)

(* First-occurrence-per-page digest of [es], in log order. *)
let first_per_page (es : entry array) =
  let seen = Hashtbl.create 256 in
  let first (e : entry) =
    if Hashtbl.mem seen e.pid then false else (Hashtbl.add seen e.pid (); true)
  in
  Array.of_list (List.filter first (Array.to_list es))

(* Digest of the [n]-th full L1 segment (memoized; segments are
   immutable once the log has grown past them).  [_unlocked]: caller
   holds [dg_mu]. *)
let l1_digest_unlocked t n =
  match Hashtbl.find_opt t.l1 n with
  | Some d -> d
  | None ->
    let d = first_per_page (Array.sub t.entries (n * l1_size) l1_size) in
    Hashtbl.add t.l1 n d;
    d

(* Digest-memo guard: every dg_mu section takes it (lock-discipline
   lint rule keys on the [Fun.protect] spelling). *)
let locked_dg t f =
  Mutex.lock t.dg_mu;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.dg_mu) f

let l1_digest t n = locked_dg t (fun () -> l1_digest_unlocked t n)

(* Digest of the [n]-th L2 segment: the merged first-wins digest of its
   L1 segments. *)
let l2_digest t n =
  locked_dg t @@ fun () ->
  match Hashtbl.find_opt t.l2 n with
    | Some d -> d
    | None ->
      let l1s = List.init l2_factor (fun k -> l1_digest_unlocked t ((n * l2_factor) + k)) in
      let d = first_per_page (Array.concat l1s) in
      Hashtbl.add t.l2 n d;
      d

(* Scan the suffix starting at snapshot [snap_id]'s position, calling
   [f pid pl_off] for every visited mapping of a page the snapshot had,
   in log order; the caller keeps the first per page.  Returns the
   number of entries visited (the SPT build cost).

   With [skippy] on, the scan hops to memoized segment digests once it
   reaches a segment boundary — the multi-level skip structure of [23]
   that keeps the scan near n log n instead of proportional to the whole
   history suffix. *)
let scan_from t snap_id ~f =
  let b = boundary t snap_id in
  let visited = ref 0 in
  let visit (e : entry) =
    incr visited;
    if e.pid < b.db_pages then f e.pid e.pl_off
  in
  let n = t.n_entries in
  if not t.skippy then
    for i = b.pos to n - 1 do
      visit t.entries.(i)
    done
  else begin
    let l2_span = l1_size * l2_factor in
    let i = ref b.pos in
    while !i < n do
      if !i mod l2_span = 0 && !i + l2_span <= n then begin
        Array.iter visit (l2_digest t (!i / l2_span));
        i := !i + l2_span
      end
      else if !i mod l1_size = 0 && !i + l1_size <= n then begin
        Array.iter visit (l1_digest t (!i / l1_size));
        i := !i + l1_size
      end
      else begin
        visit t.entries.(!i);
        incr i
      end
    done
  end;
  Obs.Scope.add Storage.Stats.c_maplog_scanned !visited;
  !visited

let length t = t.n_entries

let entry t i =
  if i < 0 || i >= t.n_entries then
    invalid_arg (Printf.sprintf "Maplog.entry: index %d out of bounds" i);
  t.entries.(i)

let skippy_enabled t = t.skippy

(* Skip-index footprint: (memoized L1 segments, memoized L2 segments,
   total digest entries held).  Digests are built lazily by scans, so
   these numbers reflect actual SPT-build traffic, not log size. *)
let skippy_stats t =
  locked_dg t (fun () ->
      let sum tbl = Hashtbl.fold (fun _ d acc -> acc + Array.length d) tbl 0 in
      (Hashtbl.length t.l1, Hashtbl.length t.l2, sum t.l1 + sum t.l2))

(* Drop the history prefix before snapshot [keep_from] after a Pagelog
   compaction: keep only the entry suffix from [keep_from]'s boundary,
   rewriting each kept entry's Pagelog offset through [remap] (the
   compaction's old-offset -> new-offset map), shift live boundaries to
   the new origin, and reset the memoized skip digests (they index raw
   entry positions, all of which just moved).  Vacuumed boundary slots
   are left as they are — [boundary] refuses them, [raw_boundary] still
   serves the declaration timestamp.  Returns the number of entries
   dropped.  Caller holds the pager's writer lock (this moves the
   ground under concurrent SPT scans). *)
let compact t ~keep_from ~remap =
  let keep_pos = (boundary t keep_from).pos in
  let n = t.n_entries - keep_pos in
  let entries = Array.make (max 256 n) { pid = 0; pl_off = 0 } in
  for i = 0 to n - 1 do
    let e = t.entries.(keep_pos + i) in
    entries.(i) <- { e with pl_off = remap e.pl_off }
  done;
  t.entries <- entries;
  t.n_entries <- n;
  for s = keep_from to t.n_boundaries do
    let b = t.boundaries.(s - 1) in
    t.boundaries.(s - 1) <- { b with pos = b.pos - keep_pos }
  done;
  t.first_live <- keep_from;
  locked_dg t (fun () ->
      Hashtbl.reset t.l1;
      Hashtbl.reset t.l2);
  keep_pos

(* Portable image (part of every database image); skip digests are
   rebuilt on demand after restore. *)
type image = {
  img_entries : entry array;
  img_boundaries : boundary array;
  img_first_live : int;
}

let dump t =
  { img_entries = Array.sub t.entries 0 t.n_entries;
    img_boundaries = Array.sub t.boundaries 0 t.n_boundaries;
    img_first_live = t.first_live }

let restore img =
  let t = create () in
  (* pushed without counting maplog appends *)
  Array.iter (push_entry t) img.img_entries;
  Array.iter (push_boundary t) img.img_boundaries;
  t.first_live <- img.img_first_live;
  t
