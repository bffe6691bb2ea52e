(* Slotted pages.

   Every database object (heap files, B+tree nodes, the catalog) lives on
   fixed-size slotted pages so that the Retro layer can snapshot the whole
   database uniformly at page granularity, as in the paper.

   Layout (little endian):
     0        kind byte
     1..4     next page id (int32, -1 = none); heap chain / leaf chain
     5..6     slot count (u16)
     7..8     content start offset (u16) — record area is [content, size)
     9..12    aux (int32) — B+tree interior: leftmost child; else free
     13..15   reserved
     16+4i    slot i: u16 record offset (0 = dead), u16 record length
   Records are appended downward from the end of the page. *)

let size = 4096
let header = 16
let slot_bytes = 4

type kind = Free | Heap_page | Btree_leaf | Btree_interior | Meta

let kind_code = function
  | Free -> 0
  | Heap_page -> 1
  | Btree_leaf -> 2
  | Btree_interior -> 3
  | Meta -> 4

let kind_of_code = function
  | 0 -> Free
  | 1 -> Heap_page
  | 2 -> Btree_leaf
  | 3 -> Btree_interior
  | 4 -> Meta
  | c -> invalid_arg (Printf.sprintf "Page.kind_of_code %d" c)

type t = Bytes.t

let get_u16 (p : t) off = Bytes.get_uint16_le p off
let set_u16 (p : t) off v = Bytes.set_uint16_le p off v

let get_i32 (p : t) off =
  let v = Bytes.get_int32_le p off in
  Int32.to_int v

let set_i32 (p : t) off v = Bytes.set_int32_le p off (Int32.of_int v)

let kind p = kind_of_code (Char.code (Bytes.get p 0))
let set_kind p k = Bytes.set p 0 (Char.chr (kind_code k))
let next p = get_i32 p 1
let set_next p v = set_i32 p 1 v
let nslots p = get_u16 p 5
let set_nslots p v = set_u16 p 5 v
let content p = get_u16 p 7
let set_content p v = set_u16 p 7 v
let aux p = get_i32 p 9
let set_aux p v = set_i32 p 9 v

let init (p : t) k =
  Bytes.fill p 0 size '\000';
  set_kind p k;
  set_next p (-1);
  set_nslots p 0;
  set_content p size;
  set_aux p (-1)

let create k =
  let p = Bytes.create size in
  init p k;
  p

let slot_off p i = get_u16 p (header + (slot_bytes * i))
let slot_len p i = get_u16 p (header + (slot_bytes * i) + 2)

let set_slot p i off len =
  set_u16 p (header + (slot_bytes * i)) off;
  set_u16 p (header + (slot_bytes * i) + 2) len

let live p i = slot_off p i <> 0

(* Bytes of slot [i], or [None] if the slot is dead. *)
let get p i =
  if i < 0 || i >= nslots p || not (live p i) then None
  else Some (Bytes.sub_string p (slot_off p i) (slot_len p i))

let get_exn p i =
  match get p i with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Page.get_exn: dead slot %d" i)

let free_space p =
  content p - (header + (slot_bytes * nslots p))

(* Rewrite the record area dropping dead space.  Slot indexes are
   preserved (rowids embed the slot index). *)
let compact p =
  let n = nslots p in
  let recs =
    List.init n (fun i -> if live p i then Some (i, get_exn p i) else None)
  in
  let pos = ref size in
  set_content p size;
  List.iter
    (function
      | None -> ()
      | Some (i, data) ->
        let len = String.length data in
        pos := !pos - len;
        Bytes.blit_string data 0 p !pos len;
        set_slot p i !pos len)
    recs;
  set_content p !pos

(* One pass over the slot directory: the first dead slot ([nslots] when
   every slot is live) and the bytes [compact] would reclaim. *)
let scan_slots p =
  let n = nslots p in
  let first_dead = ref n and live_bytes = ref 0 in
  for i = n - 1 downto 0 do
    let base = header + (slot_bytes * i) in
    if get_u16 p base = 0 then first_dead := i
    else live_bytes := !live_bytes + get_u16 p (base + 2)
  done;
  (!first_dead, size - content p - !live_bytes)

let dead_bytes p = snd (scan_slots p)

(* An insert's view of a page's slot directory, kept across inserts
   into the page so that only the first one scans it: the first dead
   slot ([nslots] when every slot is live) and the bytes [compact] would
   reclaim, with the slot count and content start they were seen with.
   An insert without compaction leaves the dead bytes as they were (the
   record and its slot are live), one with compaction leaves none; the
   next dead slot after a reused one is the first dead slot above it. *)
type fill = {
  mutable first_dead : int;
  mutable dead : int;
  mutable seen_nslots : int;
  mutable seen_content : int;
}

let fill p =
  let first_dead, dead = scan_slots p in
  { first_dead; dead; seen_nslots = nslots p; seen_content = content p }

let fill_current p f = nslots p = f.seen_nslots && content p = f.seen_content

let fill_free p f = free_space p + f.dead

(* Would [insert] of a record of [len] bytes succeed (possibly after
   compaction)?  Room for the record and a new slot answers yes without
   looking at [f]: dead bytes are never negative and a reused slot costs
   nothing. *)
let fill_fits p f len =
  free_space p >= len + slot_bytes
  || free_space p + f.dead >= len + if f.first_dead = nslots p then slot_bytes else 0

(* [fill_fits] scanning the directory only when that answer needs it. *)
let can_insert p len = free_space p >= len + slot_bytes || fill_fits p (fill p) len

(* Insert a record into the first dead slot (a new one when none is
   dead), compacting first when only that makes room, and bring [f] up
   to date; [None] if the page is full even after compaction. *)
let fill_insert p f data =
  let len = String.length data in
  if len > size - header - slot_bytes then None
  else begin
    let slot = f.first_dead in
    let slot_cost = if slot = nslots p then slot_bytes else 0 in
    if free_space p < len + slot_cost && free_space p + f.dead >= len + slot_cost then begin
      compact p;
      f.dead <- 0
    end;
    if free_space p < len + slot_cost then None
    else begin
      if slot = nslots p then set_nslots p (slot + 1);
      let off = content p - len in
      Bytes.blit_string data 0 p off len;
      set_content p off;
      set_slot p slot off len;
      let n = nslots p in
      let i = ref (slot + 1) in
      while !i < n && live p !i do
        incr i
      done;
      f.first_dead <- !i;
      f.seen_nslots <- n;
      f.seen_content <- off;
      Some slot
    end
  end

(* [fill_insert] on a page's own [fill], also returning the page's
   [free_space + dead_bytes] afterwards. *)
let insert_free p data =
  let f = fill p in
  Option.map (fun slot -> (slot, fill_free p f)) (fill_insert p f data)

let insert p data = Option.map fst (insert_free p data)

let delete p i =
  if i < 0 || i >= nslots p || not (live p i) then false
  else begin
    set_slot p i 0 0;
    true
  end

(* Replace slot [i] in place.  Returns false if it no longer fits, in
   which case the slot is left unchanged and the caller must relocate. *)
let update p i data =
  if i < 0 || i >= nslots p || not (live p i) then false
  else
    let len = String.length data in
    let old = slot_len p i in
    if len <= old then begin
      Bytes.blit_string data 0 p (slot_off p i) len;
      set_slot p i (slot_off p i) len;
      true
    end
    else if free_space p + dead_bytes p + old >= len then begin
      set_slot p i 0 0;
      if free_space p < len then compact p;
      let off = content p - len in
      Bytes.blit_string data 0 p off len;
      set_content p off;
      set_slot p i off len;
      true
    end
    else false

(* Live slots as (slot, offset, length) spans of the page itself: the
   copy-free form scans decode from. *)
let iter_spans p ~f =
  for i = 0 to nslots p - 1 do
    let off = slot_off p i in
    if off <> 0 then f i off (slot_len p i)
  done

let iter p ~f = iter_spans p ~f:(fun i off len -> f i (Bytes.sub_string p off len))

(* Ordered insertion: create a gap at slot [i] by shifting the slot
   directory, keeping slot order equal to key order.  Used by B+tree
   nodes (which never have dead slots).  Returns false when the record
   does not fit even after compaction. *)
let insert_at p i data =
  let n = nslots p in
  if i < 0 || i > n then invalid_arg "Page.insert_at: bad position";
  let len = String.length data in
  if len > size - header - slot_bytes then false
  else begin
    if free_space p < len + slot_bytes && free_space p + dead_bytes p >= len + slot_bytes
    then compact p;
    if free_space p < len + slot_bytes then false
    else begin
      let off = content p - len in
      Bytes.blit_string data 0 p off len;
      set_content p off;
      Bytes.blit p (header + (slot_bytes * i)) p
        (header + (slot_bytes * (i + 1)))
        (slot_bytes * (n - i));
      set_nslots p (n + 1);
      set_slot p i off len;
      true
    end
  end

(* Ordered removal: close the slot-directory gap at [i].  The record
   bytes become dead space reclaimed by the next compaction. *)
let remove_at p i =
  let n = nslots p in
  if i < 0 || i >= n then invalid_arg "Page.remove_at: bad position";
  Bytes.blit p
    (header + (slot_bytes * (i + 1)))
    p
    (header + (slot_bytes * i))
    (slot_bytes * (n - i - 1));
  set_nslots p (n - 1)

let copy (p : t) : t = Bytes.copy p
