(** Pagelog: the log-structured on-disk archive of copied-out pre-state
    pages (paper §4).  Pre-states are appended as transactions commit
    and fetched by snapshot queries through the snapshot page table.
    Lives on the simulated SSD whose counters drive the modeled I/O
    costs. *)

type t

val create : unit -> t

(** Append a pre-state page; returns its Pagelog offset. *)
val append : t -> Bytes.t -> int

val read : t -> int -> Bytes.t

(** Pages archived so far. *)
val length : t -> int

val size_bytes : t -> int

(** Offsets of archived blocks failing their checksum (offline scrub:
    no counters, no fault injection). *)
val verify_all : t -> int list

(** Test hook: flip one bit of an archived block without updating its
    CRC. *)
val corrupt_block : t -> int -> bit:int -> unit

(** Arm fault-injected read errors on the archive device. *)
val set_fault : t -> Storage.Fault.t option -> unit

(** The attached fault injector, if any (compaction hands it to the
    replacement device so armed faults survive a vacuum). *)
val fault : t -> Storage.Fault.t option

(** {1 Raw (stored-CRC-preserving) access}

    Compaction and database images copy blocks with these so a latent
    checksum mismatch survives the copy as a mismatch (see
    {!Storage.Disk.raw_block}). *)

val raw_block : t -> int -> Bytes.t * int
val append_raw : t -> Bytes.t -> crc:int -> int
val dump_raw : t -> (Bytes.t * int) array
val restore_raw : (Bytes.t * int) array -> t
