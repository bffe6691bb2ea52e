(** Value model and row codec.

    SQLite-style dynamic typing with four storage classes.  Rows are
    arrays of values serialized into slotted pages; the comparison order
    (NULL < numeric < TEXT, numerics compared across classes) is shared
    by indexes, ORDER BY and expression evaluation. *)

type value =
  | Null
  | Int of int
  | Real of float
  | Text of string

type row = value array

(** Storage-class name, as SQLite's [typeof()] reports it. *)
val type_name : value -> string

(** Render a value for display; [Null] prints as ["NULL"], integral
    reals as ["2.0"]. *)
val value_to_string : value -> string

val pp_value : Format.formatter -> value -> unit

(** Total order over values: NULL first, then numerics (INTEGER and
    REAL compared numerically), then TEXT byte-wise. *)
val compare_value : value -> value -> int

(** Lexicographic row comparison; shorter rows sort first on ties. *)
val compare_row : row -> row -> int

val equal_value : value -> value -> bool

(** Whether two rows encode to the same bytes: unlike {!compare_row},
    INTEGER 1 and REAL 1.0 differ, and so do REAL 0.0 and -0.0. *)
val same_row : row -> row -> bool

(** Serialize a row to bytes (length-prefixed, little-endian). *)
val encode_row : row -> string

(** Inverse of {!encode_row}.
    @raise Invalid_argument on corrupt input. *)
val decode_row : string -> row

(** {1 Decoding in place}

    A record is [len] bytes at offset [off] of a buffer (a page, in
    practice); nothing is copied out before decoding.  Every decoder
    checks each value against the record's end.
    @raise Invalid_argument on corrupt input. *)

(** Number of values in the record at [off]. *)
val arity : Bytes.t -> off:int -> int

(** Full decode of the record at [off]. *)
val decode_bytes : Bytes.t -> off:int -> len:int -> row

(** Projected decode: a row of the record's full arity in which only
    the columns [i] with [cols.(i)] are decoded; the others (and every
    column at or past [Array.length cols]) are [Null], skipped over by
    their tags and lengths without being built. *)
val decode_cols : bool array -> Bytes.t -> off:int -> len:int -> row

(** [int_col_satisfies k p b ~off ~len]: whether column [k] of the
    record is an INTEGER [i] with [p i]; [false] when the record has no
    column [k] or it holds another storage class.  It checks columns
    [0..k] as [decode_cols] with a mask of length [k + 1] does, and
    allocates nothing itself. *)
val int_col_satisfies : int -> (int -> bool) -> Bytes.t -> off:int -> len:int -> bool

(** The INTEGER value encoded at byte [pos]. *)
val int_at : Bytes.t -> int -> int

(** [compare_row] of the record's first [n] values against [r], read
    from the encoded bytes without decoding them. *)
val compare_prefix : Bytes.t -> off:int -> len:int -> int -> row -> int

(** Encoded size in bytes (the length {!encode_row} returns); the
    memory-cost experiments also use it as a row's footprint. *)
val row_size : row -> int
