(* Unit and property tests for the value model and row codec. *)

module R = Storage.Record

let value = Alcotest.testable R.pp_value R.equal_value

let check_roundtrip name row =
  Alcotest.test_case name `Quick (fun () ->
      let encoded = R.encode_row row in
      let decoded = R.decode_row encoded in
      Alcotest.(check int) "arity" (Array.length row) (Array.length decoded);
      Array.iteri (fun i v -> Alcotest.check value (Printf.sprintf "col %d" i) v decoded.(i)) row)

let roundtrip_cases =
  [ check_roundtrip "empty row" [||];
    check_roundtrip "single null" [| R.Null |];
    check_roundtrip "ints" [| R.Int 0; R.Int 1; R.Int (-1); R.Int max_int; R.Int min_int |];
    check_roundtrip "reals"
      [| R.Real 0.; R.Real 1.5; R.Real (-1.5); R.Real Float.max_float; R.Real Float.min_float;
         R.Real infinity; R.Real neg_infinity; R.Real 4900.25 |];
    check_roundtrip "texts" [| R.Text ""; R.Text "hello"; R.Text (String.make 1000 'x') |];
    check_roundtrip "unicode-ish text" [| R.Text "caf\xc3\xa9 \xe2\x82\xac" |];
    check_roundtrip "quotes and newlines" [| R.Text "it's\na 'test'" |];
    check_roundtrip "mixed"
      [| R.Null; R.Int 42; R.Real 3.14; R.Text "mixed"; R.Null; R.Int (-7) |] ]

let comparison_cases =
  [ Alcotest.test_case "null sorts first" `Quick (fun () ->
        Alcotest.(check bool) "null < int" true (R.compare_value R.Null (R.Int (-100)) < 0);
        Alcotest.(check bool) "null < text" true (R.compare_value R.Null (R.Text "") < 0);
        Alcotest.(check bool) "null = null" true (R.compare_value R.Null R.Null = 0));
    Alcotest.test_case "numeric cross-class comparison" `Quick (fun () ->
        Alcotest.(check bool) "1 < 1.5" true (R.compare_value (R.Int 1) (R.Real 1.5) < 0);
        Alcotest.(check bool) "2 > 1.5" true (R.compare_value (R.Int 2) (R.Real 1.5) > 0);
        Alcotest.(check bool) "1 = 1.0" true (R.compare_value (R.Int 1) (R.Real 1.0) = 0));
    Alcotest.test_case "numbers before text" `Quick (fun () ->
        Alcotest.(check bool) "int < text" true (R.compare_value (R.Int 9999) (R.Text "0") < 0);
        Alcotest.(check bool) "real < text" true (R.compare_value (R.Real 1e30) (R.Text "") < 0));
    Alcotest.test_case "text is byte order" `Quick (fun () ->
        Alcotest.(check bool) "a < b" true (R.compare_value (R.Text "a") (R.Text "b") < 0);
        Alcotest.(check bool) "A < a" true (R.compare_value (R.Text "A") (R.Text "a") < 0));
    Alcotest.test_case "row comparison is lexicographic" `Quick (fun () ->
        let a = [| R.Int 1; R.Text "b" |] and b = [| R.Int 1; R.Text "c" |] in
        Alcotest.(check bool) "a < b" true (R.compare_row a b < 0);
        Alcotest.(check bool) "prefix < longer" true (R.compare_row [| R.Int 1 |] a < 0));
    Alcotest.test_case "value_to_string" `Quick (fun () ->
        Alcotest.(check string) "int" "42" (R.value_to_string (R.Int 42));
        Alcotest.(check string) "null" "NULL" (R.value_to_string R.Null);
        Alcotest.(check string) "integral real" "2.0" (R.value_to_string (R.Real 2.));
        Alcotest.(check string) "text" "x" (R.value_to_string (R.Text "x"))) ]

(* --- decoding in place ---------------------------------------------------- *)

(* [row] encoded at offset 7 of a larger buffer, between junk bytes. *)
let embedded row =
  let e = R.encode_row row in
  let b = Bytes.make (String.length e + 20) '\xff' in
  Bytes.blit_string e 0 b 7 (String.length e);
  (b, 7, String.length e)

let wide_row =
  [| R.Int 1; R.Text "Customer#000000042"; R.Text "O"; R.Real 4900.25; R.Null;
     R.Text "1995-03-15"; R.Int (-7); R.Text ""; R.Text "a longer comment field" |]

(* Minor words one call of [f] allocates, averaged over many calls. *)
let words_per_call f =
  let n = 1000 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do ignore (Sys.opaque_identity (f ())) done;
  (Gc.minor_words () -. w0) /. float_of_int n

let in_place_cases =
  [ Alcotest.test_case "decode_bytes reads a record inside a larger buffer" `Quick (fun () ->
        let b, off, len = embedded wide_row in
        Alcotest.(check int) "arity" (Array.length wide_row) (R.arity b ~off);
        Alcotest.(check bool) "row" true (R.compare_row wide_row (R.decode_bytes b ~off ~len) = 0));
    Alcotest.test_case "decode_cols builds only the masked columns" `Quick (fun () ->
        let b, off, len = embedded wide_row in
        let got = R.decode_cols [| false; false; true; false; false; true |] b ~off ~len in
        Alcotest.(check int) "full arity" 9 (Array.length got);
        Array.iteri
          (fun i v ->
            let want = if i = 2 || i = 5 then wide_row.(i) else R.Null in
            Alcotest.check value (Printf.sprintf "col %d" i) want v)
          got);
    Alcotest.test_case "a length past the record's end raises" `Quick (fun () ->
        (* the text claims 40 bytes; the record holds 3 and the buffer
           goes on: decoding must not read the neighbouring bytes *)
        let e = Bytes.of_string (R.encode_row [| R.Int 5; R.Text "abc" |]) in
        Bytes.set_uint16_le e 12 40;
        let b = Bytes.make 100 'z' in
        Bytes.blit e 0 b 0 (Bytes.length e);
        let len = Bytes.length e in
        let raises f =
          match f () with _ -> false | exception Invalid_argument _ -> true
        in
        Alcotest.(check bool) "full" true (raises (fun () -> R.decode_bytes b ~off:0 ~len));
        Alcotest.(check bool) "skipped column" true
          (raises (fun () -> R.decode_cols [| true; false; false |] b ~off:0 ~len));
        Alcotest.(check bool) "record outside buffer" true
          (raises (fun () -> R.decode_bytes b ~off:90 ~len:20)));
    Alcotest.test_case "projected decode allocates the row and its columns only" `Quick
      (fun () ->
        let b, off, len = embedded wide_row in
        let one = R.decode_cols [| true |] in
        let flag = R.decode_cols [| false; false; true |] in
        let full = words_per_call (fun () -> R.decode_bytes b ~off ~len) in
        let int_col = words_per_call (fun () -> one b ~off ~len) in
        let flag_col = words_per_call (fun () -> flag b ~off ~len) in
        (* a 9-value row is 10 words; an INTEGER 2 more; a one-byte text
           is shared, so it costs nothing *)
        Alcotest.(check bool) (Printf.sprintf "int column: %.1f words" int_col) true
          (int_col <= 12.5);
        Alcotest.(check bool) (Printf.sprintf "flag column: %.1f words" flag_col) true
          (flag_col <= 10.5);
        Alcotest.(check bool) (Printf.sprintf "full decode: %.1f words" full) true
          (full > 3. *. int_col));
    Alcotest.test_case "int_col_satisfies allocates nothing" `Quick (fun () ->
        let b, off, len = embedded wide_row in
        let keys = Hashtbl.create 8 in
        Hashtbl.replace keys (-7) ();
        let p = Hashtbl.mem keys in
        Alcotest.(check bool) "INTEGER column in the set" true (R.int_col_satisfies 6 p b ~off ~len);
        Alcotest.(check bool) "INTEGER column not in the set" false
          (R.int_col_satisfies 0 p b ~off ~len);
        Alcotest.(check bool) "REAL column" false (R.int_col_satisfies 3 p b ~off ~len);
        Alcotest.(check bool) "past the arity" false (R.int_col_satisfies 12 p b ~off ~len);
        List.iter
          (fun k ->
            let w = words_per_call (fun () -> R.int_col_satisfies k p b ~off ~len) in
            Alcotest.(check (float 0.)) (Printf.sprintf "column %d: words per call" k) 0. w)
          [ 0; 3; 6; 12 ]) ]

(* --- qcheck ------------------------------------------------------------- *)

let gen_value =
  QCheck.Gen.(
    frequency
      [ (1, return R.Null);
        (4, map (fun i -> R.Int i) int);
        (3, map (fun f -> R.Real f) (float_bound_inclusive 1e12));
        (3, map (fun s -> R.Text s) (string_size (int_bound 40))) ])

let arb_row =
  QCheck.make
    ~print:(fun r ->
      "[" ^ String.concat "; " (Array.to_list (Array.map R.value_to_string r)) ^ "]")
    QCheck.Gen.(map Array.of_list (list_size (int_bound 12) gen_value))

let prop_roundtrip =
  QCheck.Test.make ~name:"encode/decode roundtrip" ~count:500 arb_row (fun row ->
      let back = R.decode_row (R.encode_row row) in
      R.compare_row row back = 0)

let prop_compare_reflexive =
  QCheck.Test.make ~name:"compare_row is reflexive" ~count:200 arb_row (fun row ->
      R.compare_row row row = 0)

let prop_compare_antisym =
  QCheck.Test.make ~name:"compare_row antisymmetry" ~count:200 (QCheck.pair arb_row arb_row)
    (fun (a, b) -> compare (R.compare_row a b) 0 = compare 0 (R.compare_row b a))

let prop_row_size_bounds =
  QCheck.Test.make ~name:"row_size approximates encoded size" ~count:200 arb_row (fun row ->
      let approx = R.row_size row and actual = String.length (R.encode_row row) in
      abs (approx - actual) <= 2 + Array.length row)

let arb_row_mask =
  QCheck.pair arb_row (QCheck.make QCheck.Gen.(map Array.of_list (list_size (int_bound 14) bool)))

let prop_decode_cols =
  QCheck.Test.make ~name:"decode_cols = decode_row on the mask, NULL elsewhere" ~count:500
    arb_row_mask (fun (row, mask) ->
      let b, off, len = embedded row in
      let got = R.decode_cols mask b ~off ~len in
      Array.length got = Array.length row
      && Array.for_all Fun.id
           (Array.mapi
              (fun i v ->
                let want = if i < Array.length mask && mask.(i) then row.(i) else R.Null in
                R.compare_value want v = 0)
              got))

let prop_compare_prefix =
  QCheck.Test.make ~name:"compare_prefix on encoded bytes = compare_row" ~count:500
    (QCheck.triple arb_row arb_row QCheck.small_nat) (fun (a, b, k) ->
      let n = if Array.length a = 0 then 0 else k mod (Array.length a + 1) in
      (* also compare against a shared prefix, so ties past the first
         column occur, and against [a] with its texts cut short, so one
         text is a proper prefix of the other *)
      let cut = function R.Text s -> R.Text (String.sub s 0 (String.length s / 2)) | v -> v in
      let b =
        match k mod 3 with
        | 0 -> b
        | 1 -> Array.append (Array.sub a 0 (n / 2)) b
        | _ -> Array.map cut (Array.sub a 0 n)
      in
      let buf, off, len = embedded a in
      compare (R.compare_prefix buf ~off ~len n b) 0
      = compare (R.compare_row (Array.sub a 0 n) b) 0)

(* [int_col_satisfies k p] is [decode_cols] with a mask of length
   [k + 1] followed by a match on [Int i] with [p i]: on valid records
   (any storage class in column [k], or no column [k]) and on records
   with one byte overwritten and their length cut, where the two must
   also raise together. *)
let int_col_model k p b ~off ~len =
  let row = R.decode_cols (Array.init (k + 1) (fun i -> i = k)) b ~off ~len in
  k < Array.length row && match row.(k) with R.Int i -> p i | _ -> false

let even i = i land 1 = 0

let prop_int_col =
  QCheck.Test.make ~name:"int_col_satisfies = decode_cols and an INTEGER match" ~count:500
    (QCheck.pair arb_row QCheck.small_nat) (fun (row, k) ->
      let k = k mod (Array.length row + 3) in
      let b, off, len = embedded row in
      R.int_col_satisfies k even b ~off ~len = int_col_model k even b ~off ~len)

let prop_int_col_corrupt =
  QCheck.Test.make ~name:"int_col_satisfies raises on the records decode_cols raises on"
    ~count:1000
    (QCheck.quad arb_row QCheck.small_nat QCheck.small_nat (QCheck.int_bound 255))
    (fun (row, k, at, byte) ->
      let k = k mod (Array.length row + 3) in
      let b, off, len = embedded row in
      Bytes.set_uint8 b (off + (at mod len)) byte;
      let len = len - (at mod 4) in
      let outcome f = match f () with v -> Some v | exception Invalid_argument _ -> None in
      outcome (fun () -> R.int_col_satisfies k even b ~off ~len)
      = outcome (fun () -> int_col_model k even b ~off ~len))

let () =
  Alcotest.run "record"
    [ ("roundtrip", roundtrip_cases);
      ("comparison", comparison_cases);
      ("in-place", in_place_cases);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest
          [ prop_roundtrip; prop_compare_reflexive; prop_compare_antisym; prop_row_size_bounds;
            prop_decode_cols; prop_compare_prefix; prop_int_col; prop_int_col_corrupt ]
      ) ]
