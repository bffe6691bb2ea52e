(** The checksummed page store: a growable array of page-sized blocks,
    each with a stored CRC32.  It holds the pager's committed pages
    (device ["db"]) and the snapshot archive (Retro's Pagelog, the
    simulated SSD).

    Archive reads and writes ({!append}, {!append_raw}, {!read}) are
    counted into the {!Stats} Pagelog counters and converted to modeled
    time by {!Stats.Cost_model}; see DESIGN.md for the substitution
    rationale.  {!store} and {!get} count nothing: the pager counts its
    own db reads and writes.  Appended blocks are copied, so later
    mutation of the source buffer cannot corrupt the archive.

    {!read} verifies the stored CRC32 and returns a defensive copy, so
    callers can neither observe nor cause silent archive corruption. *)

exception Corruption of { device : string; block : int; detail : string }
(** A stored block no longer matches its append-time checksum. *)

exception Read_error of { device : string; block : int }
(** An armed fault-injection read error (latent media fault). *)

type t

val create : ?name:string -> unit -> t

(** Blocks written so far. *)
val length : t -> int

(** Attach (or clear) a fault injector for armed read errors. *)
val set_fault : t -> Fault.t option -> unit

(** The attached fault injector, if any. *)
val fault : t -> Fault.t option

(** Append a copy of the block with its CRC32 (counted as a device
    write); returns its index. *)
val append : t -> Bytes.t -> int

(** [store t i b ~crc] puts [b] itself (not a copy) at index [i] with
    stored CRC [crc], growing the device to cover [i].  Indices it skips
    over hold an empty block with CRC 0.  Counts nothing. *)
val store : t -> int -> Bytes.t -> crc:int -> unit

(** The stored bytes of a block, not copied: no verification, no
    counters, no fault injection.
    @raise Invalid_argument on an out-of-range index. *)
val get : t -> int -> Bytes.t

(** A defensive copy of the block.  A transient read fault (armed
    once) is retried up to 3 times, each retry counted into
    [storage.read_retries]; a persistent one exhausts the retries.
    @raise Invalid_argument on an out-of-range index.
    @raise Corruption when the stored block fails its checksum.
    @raise Read_error when a fault injector armed this block. *)
val read : t -> int -> Bytes.t

(** Indices of all blocks failing their checksum (offline scrub: no
    counters, no fault injection).  An empty block with CRC 0 passes. *)
val verify_all : t -> int list

(** Test hook: flip one bit of a stored block without updating its
    CRC. *)
val corrupt_block : t -> int -> bit:int -> unit

val size_bytes : t -> int

(** {1 Raw (stored-CRC-preserving) access}

    [append] recomputes the checksum, which would silently bless a
    latent corruption.  Compaction and database images copy blocks with
    these instead, so a stored mismatch survives the copy as a
    mismatch. *)

(** Stored bytes + stored CRC of a block — no verification, no read
    counters, no fault injection.
    @raise Invalid_argument on an out-of-range index. *)
val raw_block : t -> int -> Bytes.t * int

(** Append a block with a caller-supplied stored CRC (counted as a
    device write); returns its index. *)
val append_raw : t -> Bytes.t -> crc:int -> int

(** Every block with its stored CRC, and a device holding such a
    copy (counted as no writes). *)
val dump_raw : t -> (Bytes.t * int) array
val restore_raw : ?name:string -> (Bytes.t * int) array -> t
