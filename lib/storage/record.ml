(* Value model and row codec.

   The engine uses SQLite-style dynamic typing with four storage classes:
   NULL, INTEGER, REAL and TEXT.  Rows are arrays of values serialized
   into the slotted pages of Page.t.  The ordering used by indexes and by
   ORDER BY follows SQLite: NULL < numeric < TEXT, with INTEGER and REAL
   compared numerically across classes. *)

type value =
  | Null
  | Int of int
  | Real of float
  | Text of string

type row = value array

let type_name = function
  | Null -> "NULL"
  | Int _ -> "INTEGER"
  | Real _ -> "REAL"
  | Text _ -> "TEXT"

let value_to_string = function
  | Null -> "NULL"
  | Int i -> string_of_int i
  | Real f ->
    (* Render integral floats as "1.0" so output is unambiguous. *)
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
    else Printf.sprintf "%.12g" f
  | Text s -> s

let pp_value ppf v = Fmt.string ppf (value_to_string v)

(* Total order over storage classes (SQLite semantics). *)
let compare_value a b =
  let rank = function Null -> 0 | Int _ | Real _ -> 1 | Text _ -> 2 in
  match a, b with
  | Null, Null -> 0
  | Int x, Int y -> compare x y
  | Real x, Real y -> Float.compare x y
  | Int x, Real y -> Float.compare (float_of_int x) y
  | Real x, Int y -> Float.compare x (float_of_int y)
  | Text x, Text y -> String.compare x y
  | _ -> compare (rank a) (rank b)

let compare_row (a : row) (b : row) =
  let n = min (Array.length a) (Array.length b) in
  let rec go i =
    if i = n then compare (Array.length a) (Array.length b)
    else
      let c = compare_value a.(i) b.(i) in
      if c <> 0 then c else go (i + 1)
  in
  go 0

let equal_value a b = compare_value a b = 0

let same_value a b =
  match a, b with
  | Null, Null -> true
  | Int x, Int y -> x = y
  | Real x, Real y -> Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y)
  | Text x, Text y -> String.equal x y
  | _ -> false

let same_row (a : row) (b : row) = Array.length a = Array.length b && Array.for_all2 same_value a b

(* --- binary codec --------------------------------------------------- *)

let tag_null = 0
and tag_int = 1
and tag_real = 2
and tag_text = 3

(* Encoded size of a row: the arity header plus, per value, a tag and
   its payload (8 bytes for numbers, a u16 length and the bytes for
   text).  Also the approximate in-memory footprint the memory-cost
   experiments use (Fig 11, Sec. 5.3). *)
let row_size (r : row) =
  Array.fold_left
    (fun acc v ->
      acc
      + match v with
        | Null -> 1
        | Int _ -> 9
        | Real _ -> 9
        | Text s -> 3 + String.length s)
    2 r

(* Write [v] at [pos]; returns the offset just past it. *)
let put_value b pos = function
  | Null ->
    Bytes.set_uint8 b pos tag_null;
    pos + 1
  | Int i ->
    Bytes.set_uint8 b pos tag_int;
    Bytes.set_int64_le b (pos + 1) (Int64.of_int i);
    pos + 9
  | Real f ->
    Bytes.set_uint8 b pos tag_real;
    Bytes.set_int64_le b (pos + 1) (Int64.bits_of_float f);
    pos + 9
  | Text s ->
    let len = String.length s in
    Bytes.set_uint8 b pos tag_text;
    Bytes.set_uint16_le b (pos + 1) (len land 0xffff);
    Bytes.blit_string s 0 b (pos + 3) len;
    pos + 3 + len

let encode_row (r : row) : string =
  let b = Bytes.create (row_size r) in
  Bytes.set_uint16_le b 0 (Array.length r land 0xffff);
  let pos = ref 2 in
  for i = 0 to Array.length r - 1 do
    pos := put_value b !pos r.(i)
  done;
  Bytes.unsafe_to_string b

(* Decoding reads straight out of the bytes a record lives in (usually
   a page), so a scan never copies a slot before decoding it.  Values
   are self-delimiting, so a projected decode steps over the columns a
   query never reads by their tags and lengths without building them.
   Every step is checked against the record's end, so a corrupt length
   fails as it did on a copied slot instead of reading a neighbouring
   record. *)

let bad_tag tag = invalid_arg (Printf.sprintf "Record.decode_value: bad tag %d" tag)
let past_end () = invalid_arg "Record.decode: value runs past the record"

(* End offset of the record [off, off + len) of [b], once checked to
   lie inside [b] and to hold at least the arity header. *)
let record_stop b ~off ~len =
  let stop = off + len in
  if off < 0 || stop > Bytes.length b then invalid_arg "Record.decode: record outside its buffer";
  if off + 2 > stop then past_end ();
  stop

let get_int b pos = Int64.to_int (Bytes.get_int64_le b pos)
let get_real b pos = Int64.float_of_bits (Bytes.get_int64_le b pos)

(* One-byte texts (status and flag columns) are shared, not allocated:
   values are immutable, so sharing is invisible. *)
let one_byte = Array.init 256 (fun c -> Text (String.make 1 (Char.chr c)))

let text_at b pos len =
  if len = 1 then Array.unsafe_get one_byte (Char.code (Bytes.get b pos))
  else Text (Bytes.sub_string b pos len)

(* Offset just past the value encoded at [pos]. *)
let value_end b pos stop =
  if pos >= stop then past_end ();
  let tag = Bytes.get_uint8 b pos in
  let e =
    if tag = tag_null then pos + 1
    else if tag = tag_int || tag = tag_real then pos + 9
    else if tag = tag_text then
      if pos + 3 > stop then past_end () else pos + 3 + Bytes.get_uint16_le b (pos + 1)
    else bad_tag tag
  in
  if e > stop then past_end ();
  e

let arity b ~off = Bytes.get_uint16_le b off

let int_at b pos =
  let tag = Bytes.get_uint8 b pos in
  if tag <> tag_int then invalid_arg (Printf.sprintf "Record.int_at: tag %d is not INTEGER" tag);
  get_int b (pos + 1)

(* The value encoded in [pos, e), its extent checked by [value_end]. *)
let value_at b pos e =
  let tag = Bytes.get_uint8 b pos in
  if tag = tag_int then Int (get_int b (pos + 1))
  else if tag = tag_real then Real (get_real b (pos + 1))
  else if tag = tag_text then text_at b (pos + 3) (e - pos - 3)
  else Null

(* Decode columns [0, upto) of the record into [row] (pre-filled with
   [Null]), building column [i] only when [all] or [cols.(i)]. *)
let decode_into row ~all cols b ~off ~stop ~upto =
  let pos = ref (off + 2) in
  for i = 0 to upto - 1 do
    let p = !pos in
    let e = value_end b p stop in
    if all || Array.unsafe_get cols i then row.(i) <- value_at b p e;
    pos := e
  done

let decode_cols (cols : bool array) b ~off ~len : row =
  let stop = record_stop b ~off ~len in
  let n = arity b ~off in
  let row = Array.make n Null in
  decode_into row ~all:false cols b ~off ~stop ~upto:(min n (Array.length cols));
  row

let decode_bytes b ~off ~len : row =
  let stop = record_stop b ~off ~len in
  let n = arity b ~off in
  let row = Array.make n Null in
  decode_into row ~all:true [||] b ~off ~stop ~upto:n;
  row

let decode_row (s : string) : row =
  decode_bytes (Bytes.unsafe_of_string s) ~off:0 ~len:(String.length s)

(* Column [k] of a record an INTEGER satisfying [p]?  Columns [0, k]
   are stepped over and checked exactly as [decode_cols] checks them,
   so the two raise on the same corrupt records; nothing is built, so a
   call allocates nothing beyond what [p] does.  A loop at top level,
   like the comparison loops below, so it captures no closure. *)
let rec int_col_from b stop k p i upto pos =
  if i = upto then false
  else
    let e = value_end b pos stop in
    if i < k then int_col_from b stop k p (i + 1) upto e
    else Bytes.get_uint8 b pos = tag_int && p (get_int b (pos + 1))

let int_col_satisfies k p b ~off ~len =
  let stop = record_stop b ~off ~len in
  int_col_from b stop k p 0 (min (arity b ~off) (k + 1)) (off + 2)

(* --- comparison against encoded values --------------------------------- *)

(* Byte-wise, shorter first on a common prefix (String.compare), of the
   [len] bytes at [pos] against [s]; from index [i] on.  The search
   loops here are top-level functions, so a probe allocates nothing. *)
let rec compare_text b pos len s i =
  if i = len || i = String.length s then Int.compare len (String.length s)
  else
    let c = Char.compare (Bytes.unsafe_get b (pos + i)) (String.unsafe_get s i) in
    if c <> 0 then c else compare_text b pos len s (i + 1)

(* [compare_value] of the value encoded at [pos] with [v], without
   building the former. *)
let compare_encoded b pos v =
  (* tags 0..3 are tag_null, tag_int, tag_real, tag_text *)
  match Bytes.get_uint8 b pos, v with
  | 0, Null -> 0
  | 0, (Int _ | Real _ | Text _) -> -1
  | 1, Int y -> Int.compare (get_int b (pos + 1)) y
  | 1, Real y -> Float.compare (float_of_int (get_int b (pos + 1))) y
  | 2, Real y -> Float.compare (get_real b (pos + 1)) y
  | 2, Int y -> Float.compare (get_real b (pos + 1)) (float_of_int y)
  | (1 | 2), Null -> 1
  | (1 | 2), Text _ -> -1
  | 3, Text s -> compare_text b (pos + 3) (Bytes.get_uint16_le b (pos + 1)) s 0
  | 3, (Null | Int _ | Real _) -> 1
  | tag, _ -> bad_tag tag

let rec compare_values b stop (r : row) i m pos =
  if i = m then 0
  else
    let next = value_end b pos stop in
    let c = compare_encoded b pos r.(i) in
    if c <> 0 then c else compare_values b stop r (i + 1) m next

let compare_prefix b ~off ~len n (r : row) =
  let stop = record_stop b ~off ~len in
  let c = compare_values b stop r 0 (min n (Array.length r)) (off + 2) in
  if c <> 0 then c else Int.compare n (Array.length r)
