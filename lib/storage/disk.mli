(** Simulated block device backing the snapshot archive (Pagelog).

    Reads and writes are counted into the {!Stats} counters and converted to
    modeled time by {!Stats.Cost_model}; see DESIGN.md for the
    substitution rationale.  Blocks are page-sized and copied on append,
    so later mutation of the source buffer cannot corrupt the archive.

    Every block carries a CRC32 taken at append time; {!read} verifies
    it and returns a defensive copy, so callers can neither observe nor
    cause silent archive corruption. *)

exception Corruption of { device : string; block : int; detail : string }
(** A stored block no longer matches its append-time checksum. *)

exception Read_error of { device : string; block : int }
(** An armed fault-injection read error (latent media fault). *)

type t

val create : ?name:string -> unit -> t

(** Blocks written so far. *)
val length : t -> int

val name : t -> string

(** Attach (or clear) a fault injector for armed read errors. *)
val set_fault : t -> Fault.t option -> unit

(** The attached fault injector, if any. *)
val fault : t -> Fault.t option

(** Append a copy of the block; returns its index. *)
val append : t -> Bytes.t -> int

(** A defensive copy of the block.  A transient read fault (armed
    once) is retried up to 3 times, each retry counted into
    [storage.read_retries]; a persistent one exhausts the retries.
    @raise Invalid_argument on an out-of-range index.
    @raise Corruption when the stored block fails its checksum.
    @raise Read_error when a fault injector armed this block. *)
val read : t -> int -> Bytes.t

(** Indices of all blocks failing their checksum (offline scrub: no
    counters, no fault injection). *)
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
    copy. *)
val dump_raw : t -> (Bytes.t * int) array
val restore_raw : ?name:string -> (Bytes.t * int) array -> t
