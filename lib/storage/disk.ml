(* The checksummed page store: a growable array of page-sized blocks,
   each with a stored CRC32.  Two devices use it: the pager's committed
   pages ("db", memory resident as in the paper's evaluation) and the
   snapshot archive (Retro's Pagelog, the simulated SSD).

   The container has no dedicated SSD, so instead of timing host
   filesystem I/O (noise), archive reads and writes are counted and
   converted to time by Stats.Cost_model.  [append]/[append_raw]/[read]
   count Pagelog I/O; [store] and [get] count nothing (the pager counts
   its own db reads and writes).

   [read] verifies the stored CRC and raises a typed {!Corruption} on
   mismatch, so a flipped bit in the archive surfaces as a scoped
   failure (the snapshots referencing the block) instead of
   silently-wrong rows.  A {!Fault.t} can be attached to arm per-block
   read errors (latent media faults). *)

exception Corruption of { device : string; block : int; detail : string }
exception Read_error of { device : string; block : int }

type t = {
  mutable blocks : Bytes.t array;
  mutable crcs : int array;
  mutable n_blocks : int;
  name : string;
  mutable fault : Fault.t option;
}

(* Transient media errors (an armed-once fault) are retried this many
   times before {!Read_error} reaches the caller. *)
let read_retries = 3

let create ?(name = "disk") () =
  { blocks = Array.make 64 Bytes.empty;
    crcs = Array.make 64 0;
    n_blocks = 0;
    name;
    fault = None }

let length t = t.n_blocks

let set_fault t f = t.fault <- f
let fault t = t.fault

let check t what i =
  if i < 0 || i >= t.n_blocks then
    invalid_arg (Printf.sprintf "Disk.%s %s: block %d/%d" what t.name i t.n_blocks)

(* Put [b] (not copied) at index [i] with stored CRC [crc], growing the
   array and extending the length to cover [i]; indices skipped over
   hold an empty block with CRC 0. *)
let store t i (b : Bytes.t) ~crc =
  let cap = Array.length t.blocks in
  if i >= cap then begin
    let cap' = max (cap * 2) (i + 1) in
    let blocks = Array.make cap' Bytes.empty in
    Array.blit t.blocks 0 blocks 0 cap;
    t.blocks <- blocks;
    let crcs = Array.make cap' 0 in
    Array.blit t.crcs 0 crcs 0 cap;
    t.crcs <- crcs
  end;
  t.blocks.(i) <- b;
  t.crcs.(i) <- crc;
  if i >= t.n_blocks then t.n_blocks <- i + 1

(* Stored bytes of block [i], not copied: no verification, no counters,
   no fault injection. *)
let get t i =
  check t "get" i;
  t.blocks.(i)

(* Append a block with a caller-supplied stored CRC (counted as a
   write); returns its index.  The block is copied so later mutation by
   the caller cannot corrupt the archive. *)
let append_raw t (b : Bytes.t) ~crc =
  let i = t.n_blocks in
  store t i (Bytes.copy b) ~crc;
  Obs.Scope.incr Stats.c_pagelog_writes;
  i

let append t (b : Bytes.t) = append_raw t b ~crc:(Crc32.bytes b)

let read t i =
  check t "read" i;
  (* Transient media errors get a bounded retry with (modeled)
     exponential backoff: an armed-once fault is consumed by the first
     probe and the retry succeeds; a persistent fault exhausts the
     budget and surfaces as {!Read_error}. *)
  (match t.fault with
   | Some f ->
     let rec probe attempt =
       if Fault.should_fail_read f ~device:t.name ~index:i then begin
         if attempt >= read_retries then
           raise (Read_error { device = t.name; block = i });
         Obs.Scope.incr Stats.c_read_retries;
         if !Stats.Cost_model.real_read_latency then
           Unix.sleepf (!Stats.Cost_model.ssd_read_s *. float_of_int (1 lsl attempt));
         probe (attempt + 1)
       end
     in
     probe 0
   | None -> ());
  Stats.record_pagelog_read ();
  (* Opt-in real device latency: spend the modeled per-read time as an
     actual sleep so concurrent reader domains overlap their waits.
     Must stay outside every lock (see Retro's cache locking). *)
  if !Stats.Cost_model.real_read_latency then Unix.sleepf !Stats.Cost_model.ssd_read_s;
  let b = t.blocks.(i) in
  if Crc32.bytes b <> t.crcs.(i) then
    raise (Corruption { device = t.name; block = i; detail = "checksum mismatch" });
  Bytes.copy b

(* All block indices failing their checksum.  A scrub pass: no fault
   injection, no read counters — this models an offline verify, not
   query-path I/O.  An empty block with CRC 0 passes. *)
let verify_all t =
  let bad = ref [] in
  for i = t.n_blocks - 1 downto 0 do
    if Crc32.bytes t.blocks.(i) <> t.crcs.(i) then bad := i :: !bad
  done;
  !bad

(* Flip one bit of a stored block in place, without updating its CRC —
   the test hook that models media corruption. *)
let corrupt_block t i ~bit =
  check t "corrupt_block" i;
  let b = t.blocks.(i) in
  if Bytes.length b = 0 then invalid_arg "Disk.corrupt_block: empty block";
  let off = bit / 8 mod Bytes.length b in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor (1 lsl (bit mod 8))))

(* Total archive size in bytes (Pagelog growth experiments). *)
let size_bytes t = t.n_blocks * Page.size

(* --- raw (CRC-preserving) block access ----------------------------------- *)

(* Stored bytes + stored CRC of block [i], with no verification, no
   counters and no fault injection.  Compaction (Retro.vacuum) and every
   database image use these so a latent checksum mismatch survives a
   copy *as a mismatch* — [append] would recompute the CRC and silently
   bless the corruption. *)
let raw_block t i =
  check t "raw_block" i;
  (Bytes.copy t.blocks.(i), t.crcs.(i))

let dump_raw t = Array.init t.n_blocks (fun i -> (Bytes.copy t.blocks.(i), t.crcs.(i)))

let restore_raw ?name pairs =
  let t = create ?name () in
  Array.iteri (fun i (b, crc) -> store t i (Bytes.copy b) ~crc) pairs;
  t
