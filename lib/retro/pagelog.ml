(* Pagelog: the log-structured on-disk archive of copied-out pre-state
   pages (paper §4).  Pre-states are appended as transactions commit and
   fetched by snapshot queries through the snapshot page table.  Lives on
   the simulated SSD (Storage.Disk), whose counters drive the modeled I/O
   costs in the benchmarks. *)

type t = { disk : Storage.Disk.t }

let create () = { disk = Storage.Disk.create ~name:"pagelog" () }

(* Append a pre-state page; returns its Pagelog offset (block index). *)
let append t (page : Bytes.t) = Storage.Disk.append t.disk page

let read t off = Storage.Disk.read t.disk off

let length t = Storage.Disk.length t.disk

(* Offsets of blocks failing their checksum (offline scrub). *)
let verify_all t = Storage.Disk.verify_all t.disk

(* Test hook: flip one bit of an archived block without updating its
   CRC. *)
let corrupt_block t off ~bit = Storage.Disk.corrupt_block t.disk off ~bit

(* Arm fault-injected read errors on the archive device. *)
let set_fault t f = Storage.Disk.set_fault t.disk f

let size_bytes t = Storage.Disk.size_bytes t.disk

(* Raw (stored-CRC-preserving) access for compaction and database
   images: a latent checksum mismatch must survive the copy as a
   mismatch, never be re-blessed by a recomputed CRC. *)
let raw_block t off = Storage.Disk.raw_block t.disk off

let append_raw t b ~crc = Storage.Disk.append_raw t.disk b ~crc

let dump_raw t = Storage.Disk.dump_raw t.disk

let restore_raw pairs = { disk = Storage.Disk.restore_raw ~name:"pagelog" pairs }

(* The attached fault injector (compaction hands it to the replacement
   device so armed faults survive a vacuum). *)
let fault t = Storage.Disk.fault t.disk
