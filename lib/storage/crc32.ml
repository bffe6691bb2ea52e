(* CRC-32 (IEEE 802.3, the zlib polynomial), slicing-by-8.

   Every durable artifact carries one: WAL record payloads, Pagelog
   blocks, committed page images and whole backup files.  A checksum
   mismatch is how torn WAL tails, bit flips and truncated backups are
   detected instead of being decoded into garbage.

   Slicing-by-8 consumes eight input bytes per step through eight
   256-entry tables: slice [k] holds the CRC of a byte followed by [k]
   zero bytes, so the eight lookups of one step combine independently.
   The result is bit-identical to the byte-at-a-time table algorithm,
   which still handles the tail shorter than eight bytes. *)

(* [tables.((k lsl 8) lor n)] is slice [k]'s entry for byte [n].  Built
   once at module initialisation and never written afterwards, so
   concurrent domains read it freely. *)
let tables =
  let t = Array.make (8 * 256) 0 in
  for n = 0 to 255 do
    let c = ref n in
    for _ = 0 to 7 do
      c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
    done;
    t.(n) <- !c
  done;
  for k = 1 to 7 do
    for n = 0 to 255 do
      let prev = t.(((k - 1) lsl 8) lor n) in
      t.((k lsl 8) lor n) <- (prev lsr 8) lxor t.(prev land 0xff)
    done
  done;
  t

(* Incremental update over [bytes.(off .. off+len-1)]; feed [0] as the
   initial value and chain the result to checksum in pieces. *)
let update crc (b : Bytes.t) off len =
  let t = tables in
  let c = ref (crc lxor 0xffffffff) in
  let i = ref off in
  let stop8 = off + (max 0 len land lnot 7) in
  while !i < stop8 do
    let lo = (Int32.to_int (Bytes.get_int32_le b !i) land 0xffffffff) lxor !c in
    let hi = Int32.to_int (Bytes.get_int32_le b (!i + 4)) land 0xffffffff in
    c :=
      t.((7 lsl 8) lor (lo land 0xff))
      lxor t.((6 lsl 8) lor ((lo lsr 8) land 0xff))
      lxor t.((5 lsl 8) lor ((lo lsr 16) land 0xff))
      lxor t.((4 lsl 8) lor (lo lsr 24))
      lxor t.((3 lsl 8) lor (hi land 0xff))
      lxor t.((2 lsl 8) lor ((hi lsr 8) land 0xff))
      lxor t.((1 lsl 8) lor ((hi lsr 16) land 0xff))
      lxor t.(hi lsr 24);
    i := !i + 8
  done;
  for j = stop8 to off + len - 1 do
    c := t.((!c lxor Char.code (Bytes.get b j)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff land 0xffffffff

let bytes (b : Bytes.t) = update 0 b 0 (Bytes.length b)

(* Read-only view of the string's bytes: [update] never writes, so no
   copy is needed. *)
let string (s : string) = bytes (Bytes.unsafe_of_string s)
