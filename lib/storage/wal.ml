(* Append-only write-ahead log for the current-state database and the
   snapshot archive.

   File layout:

     header   = magic "RQLWAL01" (8 bytes) | u32 LE format version
     frame    = u8 kind | u32 LE payload length | u32 LE CRC32(payload) | payload
     kind 1   = Commit  : u32 nwrites, then per write (u32 pid, u32 len,
                bytes), u32 nfreed, then u32 per freed pid
     kind 2   = Declare : u32 db_pages, u64 LE (IEEE-754 bits of ts)
     kind 3   = Checkpoint : u32 seq — everything before this frame is
                durably materialized in the checkpoint image of the same
                sequence number (see Sqldb.Ckpt); recovery restores that
                image and replays only the frames after it

   Only commits (page after-images + freed ids) and snapshot
   declarations are logged — never Pagelog/Maplog appends.  Recovery
   replays the commit sequence through the pager's pre-commit hook with
   before-images reconstructed from the committed state being rebuilt,
   which reproduces the Retro archive byte-for-byte because the logged
   write order equals the runtime event order (Txn.commit feeds both
   from one list).

   Durability is modeled, not real: [barrier] flushes buffered frames to
   the file and charges one fsync through Stats.Cost_model; group commit
   ([group_commit] > 1) batches barriers so several transactions share
   one fsync, at the cost of losing the unflushed tail in a crash.  A
   torn or bit-flipped tail is detected by the per-frame CRC and
   truncated away — the atomic commit boundary. *)

let magic = "RQLWAL01"
let version = 1
let header_size = 12

exception Error of string
(** The file is not a WAL: bad magic, bad version, or a header too
    short to identify.  (A damaged *tail* is not an error — recovery
    truncates it.) *)

type record =
  | Commit of { writes : (int * Bytes.t) list; freed : int list }
  | Declare of { db_pages : int; ts : float }
  | Checkpoint of { seq : int }

type t = {
  path : string;
  mutable oc : out_channel option;
  pending : Buffer.t; (* frames appended but not yet flushed *)
  mutable pending_barriers : int;
  group_commit : int; (* barriers per real flush+fsync *)
  mutable fault : Fault.t option;
  mutable appends : int; (* per-instance mirrors of the global counters *)
  mutable bytes_logged : int;
  mutable fsyncs : int;
  mutable since_ckpt : int; (* frame bytes appended since the last checkpoint *)
}

type status = {
  st_path : string;
  st_group_commit : int;
  st_appends : int;
  st_bytes : int;
  st_fsyncs : int;
  st_pending_bytes : int;
  st_since_checkpoint : int; (* frame bytes logged since the last checkpoint *)
}

type report = {
  rep_commits : int;
  rep_declares : int;
  rep_valid_bytes : int;
  rep_total_bytes : int;
  rep_torn : bool;    (* incomplete final frame (crash mid-write) *)
  rep_corrupt : bool; (* checksum/decode failure in the tail *)
  rep_checkpoint : int option; (* seq of the last checkpoint frame, if any *)
}

(* --- binary helpers ----------------------------------------------------- *)

let add_u32 buf v = Buffer.add_int32_le buf (Int32.of_int v)

let get_u32 (b : Bytes.t) off = Int32.to_int (Bytes.get_int32_le b off) land 0xffffffff

(* --- lifecycle ----------------------------------------------------------- *)

let write_header oc =
  output_string oc magic;
  let b = Bytes.create 4 in
  Bytes.set_int32_le b 0 (Int32.of_int version);
  output_bytes oc b;
  flush oc

let make path oc group_commit =
  { path;
    oc = Some oc;
    pending = Buffer.create 4096;
    pending_barriers = 0;
    group_commit;
    fault = None;
    appends = 0;
    bytes_logged = 0;
    fsyncs = 0;
    since_ckpt = 0 }

(* Create a fresh WAL at [path], truncating anything there. *)
let create ?(group_commit = 1) ~path () =
  let oc = open_out_bin path in
  write_header oc;
  make path oc group_commit

(* Reopen an existing (recovered, truncated) WAL for appending. *)
let open_append ?(group_commit = 1) ~path () =
  let oc = open_out_gen [ Open_append; Open_binary ] 0o644 path in
  make path oc group_commit

let set_fault t f = t.fault <- f
let fault t = t.fault
let path t = t.path
let bytes_since_checkpoint t = t.since_ckpt

let status t =
  { st_path = t.path;
    st_group_commit = t.group_commit;
    st_appends = t.appends;
    st_bytes = t.bytes_logged;
    st_fsyncs = t.fsyncs;
    st_pending_bytes = Buffer.length t.pending;
    st_since_checkpoint = t.since_ckpt }

(* --- the write path (every step is a fault-injection point) ------------- *)

(* Simulated process death at an armed crash point.  With [torn], a
   seeded strict prefix of the unflushed frames reaches the file first —
   the torn final block recovery must detect and truncate. *)
let crash_now t ~torn =
  (match t.oc with
   | Some oc ->
     (if torn && Buffer.length t.pending > 0 then begin
        let len = Fault.torn_length (Option.get t.fault) ~len:(Buffer.length t.pending) in
        output_string oc (String.sub (Buffer.contents t.pending) 0 len)
      end);
     close_out_noerr oc;
     t.oc <- None
   | None -> ());
  Buffer.clear t.pending;
  raise Fault.Crash

let tick t =
  match t.fault with
  | None -> ()
  | Some f ->
    (match Fault.tick f with
     | Some torn -> crash_now t ~torn
     | None -> ())

let check_open t =
  match t.oc with
  | Some oc -> oc
  | None -> raise (Error (Printf.sprintf "Wal %s: log is closed" t.path))

let encode_record r =
  let buf = Buffer.create 256 in
  (match r with
   | Commit { writes; freed } ->
     add_u32 buf (List.length writes);
     List.iter
       (fun (pid, b) ->
         add_u32 buf pid;
         add_u32 buf (Bytes.length b);
         Buffer.add_bytes buf b)
       writes;
     add_u32 buf (List.length freed);
     List.iter (fun pid -> add_u32 buf pid) freed
   | Declare { db_pages; ts } ->
     add_u32 buf db_pages;
     Buffer.add_int64_le buf (Int64.bits_of_float ts)
   | Checkpoint { seq } -> add_u32 buf seq);
  let kind = match r with Commit _ -> 1 | Declare _ -> 2 | Checkpoint _ -> 3 in
  (kind, Buffer.to_bytes buf)

let append t r =
  ignore (check_open t);
  tick t;
  let kind, payload = encode_record r in
  Buffer.add_char t.pending (Char.chr kind);
  add_u32 t.pending (Bytes.length payload);
  add_u32 t.pending (Crc32.bytes payload);
  Buffer.add_bytes t.pending payload;
  let frame_bytes = 9 + Bytes.length payload in
  t.appends <- t.appends + 1;
  t.bytes_logged <- t.bytes_logged + frame_bytes;
  t.since_ckpt <- t.since_ckpt + frame_bytes;
  Obs.Scope.incr Stats.c_wal_appends;
  Obs.Scope.add Stats.c_wal_bytes frame_bytes

let flush_pending t =
  if Buffer.length t.pending > 0 then begin
    let oc = check_open t in
    tick t;
    output_string oc (Buffer.contents t.pending);
    flush oc;
    Buffer.clear t.pending
  end

(* The modeled fsync: no host syscall (the device is simulated), just
   the barrier's cost charged through Stats.Cost_model. *)
let modeled_fsync t =
  tick t;
  t.fsyncs <- t.fsyncs + 1;
  Obs.Scope.incr Stats.c_wal_fsyncs

(* Durability point after a commit or declare.  Under group commit the
   flush+fsync only happens every [group_commit] barriers — the batched
   transactions share one fsync, and all of them are lost together if
   the process dies before the batch flushes. *)
let barrier t =
  ignore (check_open t);
  t.pending_barriers <- t.pending_barriers + 1;
  if t.pending_barriers >= t.group_commit && Buffer.length t.pending > 0 then begin
    flush_pending t;
    modeled_fsync t;
    t.pending_barriers <- 0
  end

(* Force the pending tail out regardless of group commit. *)
let sync t =
  if Buffer.length t.pending > 0 then begin
    flush_pending t;
    modeled_fsync t
  end;
  t.pending_barriers <- 0

(* --- checkpoint truncation ----------------------------------------------- *)

(* An explicit injection point for the lifecycle protocols (checkpoint
   image write, Pagelog compaction): each call is one observed
   write-path operation of the attached injector, so the crash matrix
   can kill the process at every step of a vacuum or checkpoint. *)
let injection_point t = tick t

(* Truncate the log behind a durably materialized checkpoint: write a
   fresh log (header + Checkpoint frame) to a temp file and rename it
   over [path].  The rename is the commit point — before it the old log
   (complete record of every commit) is in force, after it recovery
   starts from the checkpoint image of [seq].  Callers must have made
   the matching image durable *before* calling (see Sqldb.Ckpt for the
   whole protocol).  Returns the frame bytes dropped from the log. *)
let truncate_to_checkpoint t ~seq =
  sync t;
  let old_size = (Unix.stat t.path).Unix.st_size in
  tick t;
  let tmp = t.path ^ ".swap" in
  let oc = open_out_bin tmp in
  write_header oc;
  let kind, payload = encode_record (Checkpoint { seq }) in
  output_char oc (Char.chr kind);
  let hdr = Buffer.create 8 in
  add_u32 hdr (Bytes.length payload);
  add_u32 hdr (Crc32.bytes payload);
  Buffer.output_buffer oc hdr;
  output_bytes oc payload;
  flush oc;
  close_out oc;
  tick t;
  (* swap the live channel to the new log *)
  (match t.oc with
   | Some oc ->
     close_out_noerr oc;
     t.oc <- None
   | None -> ());
  Sys.rename tmp t.path; (* commit point *)
  t.oc <- Some (open_out_gen [ Open_append; Open_binary ] 0o644 t.path);
  modeled_fsync t;
  let new_size = (Unix.stat t.path).Unix.st_size in
  let dropped = max 0 (old_size - new_size) in
  t.since_ckpt <- 0;
  t.appends <- t.appends + 1;
  t.bytes_logged <- t.bytes_logged + 9 + Bytes.length payload;
  Obs.Scope.add Stats.c_wal_truncated_bytes dropped;
  dropped

let close t =
  match t.oc with
  | None -> ()
  | Some oc ->
    sync t;
    close_out oc;
    t.oc <- None

(* Wire this WAL into a pager: Txn.commit and Retro.declare log through
   the sink. *)
let attach t (pager : Pager.t) =
  pager.Pager.wal <-
    Some
      { Pager.wal_commit = (fun ~writes ~freed -> append t (Commit { writes; freed }));
        wal_declare = (fun ~db_pages ~ts -> append t (Declare { db_pages; ts }));
        wal_barrier = (fun () -> barrier t) }

(* --- recovery ------------------------------------------------------------ *)

exception Bad_record (* local: payload failed to decode *)

let decode_record kind (payload : Bytes.t) =
  let pos = ref 0 in
  let len = Bytes.length payload in
  let need n = if !pos + n > len then raise Bad_record in
  let u32 () =
    need 4;
    let v = get_u32 payload !pos in
    pos := !pos + 4;
    v
  in
  let raw n =
    need n;
    let b = Bytes.sub payload !pos n in
    pos := !pos + n;
    b
  in
  let r =
    match kind with
    | 1 ->
      let nwrites = u32 () in
      if nwrites > len then raise Bad_record;
      let writes =
        List.init nwrites (fun _ ->
            let pid = u32 () in
            let blen = u32 () in
            (pid, raw blen))
      in
      let nfreed = u32 () in
      if nfreed > len then raise Bad_record;
      let freed = List.init nfreed (fun _ -> u32 ()) in
      Commit { writes; freed }
    | 2 ->
      let db_pages = u32 () in
      need 8;
      let ts = Int64.float_of_bits (Bytes.get_int64_le payload !pos) in
      pos := !pos + 8;
      Declare { db_pages; ts }
    | 3 ->
      let seq = u32 () in
      Checkpoint { seq }
    | _ -> raise Bad_record
  in
  if !pos <> len then raise Bad_record;
  r

let read_exact ic n =
  let b = Bytes.create n in
  really_input ic b 0 n;
  b

(* Scan the log, returning every record up to the last complete,
   checksum-valid frame.  A short or checksum-failing tail marks the
   report torn/corrupt; the file is truncated to the valid prefix so a
   subsequent [open_append] writes from a consistent boundary. *)
let recover ~path =
  let ic = open_in_bin path in
  let total = in_channel_length ic in
  let records = ref [] in
  let commits = ref 0 in
  let declares = ref 0 in
  let checkpoint = ref None in
  let valid = ref header_size in
  let torn = ref false in
  let corrupt = ref false in
  Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ (fun () ->
    if total < header_size then
      raise (Error (Printf.sprintf "Wal %s: too short to be a log" path));
    let hdr = read_exact ic header_size in
    if Bytes.sub_string hdr 0 8 <> magic then
      raise (Error (Printf.sprintf "Wal %s: bad magic" path));
    let v = get_u32 hdr 8 in
    if v <> version then
      raise (Error (Printf.sprintf "Wal %s: unsupported format version %d" path v));
    let running = ref true in
    while !running do
      match input_char ic with
      | exception End_of_file -> running := false (* clean end *)
      | kind_ch ->
        let kind = Char.code kind_ch in
        (match
           let frame_hdr = read_exact ic 8 in
           let plen = get_u32 frame_hdr 0 in
           let crc = get_u32 frame_hdr 4 in
           if plen > total - pos_in ic then raise End_of_file;
           (plen, crc, read_exact ic plen)
         with
         | exception End_of_file ->
           (* incomplete final frame: the classic torn write *)
           torn := true;
           running := false
         | plen, crc, payload ->
           if Crc32.bytes payload <> crc then begin
             corrupt := true;
             running := false
           end
           else begin
             match decode_record kind payload with
             | exception Bad_record ->
               corrupt := true;
               running := false
             | r ->
               records := r :: !records;
               (match r with
                | Commit _ -> incr commits
                | Declare _ -> incr declares
                | Checkpoint { seq } -> checkpoint := Some seq);
               valid := !valid + 9 + plen
           end)
    done);
  if !torn || !corrupt then begin
    Obs.Scope.incr Stats.c_torn_tail_discards;
    Unix.truncate path !valid
  end;
  ( List.rev !records,
    { rep_commits = !commits;
      rep_declares = !declares;
      rep_valid_bytes = !valid;
      rep_total_bytes = total;
      rep_torn = !torn;
      rep_corrupt = !corrupt;
      rep_checkpoint = !checkpoint } )

(* Re-drive the recovered commit/declare sequence against a fresh pager.

   Before-images are reconstructed from the committed state being
   rebuilt ([Pager.peek_committed]): at replay time, a recycled id's
   previous committed content is exactly what the original transaction
   overwrote, and a brand-new id peeks as [None] — so the pre-commit
   hook (Retro's COW archiver) sees the same event stream it saw at
   runtime, in the same order, and the archive comes back
   byte-for-byte.

   The free list is reconstructed alongside: each commit's freed pids
   join it, and pids a later commit writes leave it (they were
   recycled).  [declare] is the caller's snapshot-boundary callback
   (Retro.declare_at), invoked with the logged db_pages/ts rather than
   the replayed pager's n_pages, which can legitimately differ (aborted
   reservations grow n_pages without ever being logged). *)
let replay ~(pager : Pager.t) ~declare records =
  (* Seed from the pager's current free list: when replay starts from a
     restored checkpoint image (rather than an empty pager), the image's
     free list must survive into the replayed suffix. *)
  let free = ref pager.Pager.free_list in
  List.iter
    (fun r ->
      match r with
      | Commit { writes; freed } ->
        let events =
          List.map
            (fun (pid, _) -> { Pager.pid; before = Pager.peek_committed pager pid })
            writes
        in
        pager.Pager.pre_commit_hook events;
        List.iter (fun (pid, after) -> Pager.install pager pid after) writes;
        let written = List.map fst writes in
        free := List.filter (fun p -> not (List.mem p written)) !free;
        free := freed @ !free
      | Declare { db_pages; ts } -> declare ~db_pages ~ts
      | Checkpoint _ -> () (* a boundary marker; the image was restored by the caller *))
    records;
  pager.Pager.free_list <- !free
