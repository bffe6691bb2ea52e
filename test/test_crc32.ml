(* CRC-32 tests: known-answer vectors, and the slicing-by-8 kernel
   against a byte-at-a-time reference over random buffers, offsets,
   lengths and chained updates.  Every WAL record, Pagelog block, page
   image, backup and checkpoint frame is verified with these values, so
   they must never change. *)

module C = Storage.Crc32

(* The textbook reflected table-driven CRC-32 (IEEE 802.3), one byte per
   step. *)
let ref_table =
  Array.init 256 (fun n ->
      let c = ref n in
      for _ = 0 to 7 do
        c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
      done;
      !c)

let ref_update crc b off len =
  let c = ref (crc lxor 0xffffffff) in
  for i = off to off + len - 1 do
    c := ref_table.((!c lxor Char.code (Bytes.get b i)) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let hex = Alcotest.testable (fun ppf v -> Format.fprintf ppf "0x%08x" v) ( = )

let vectors =
  [ Alcotest.test_case "check value of \"123456789\"" `Quick (fun () ->
        Alcotest.check hex "string" 0xcbf43926 (C.string "123456789");
        Alcotest.check hex "bytes" 0xcbf43926 (C.bytes (Bytes.of_string "123456789")));
    Alcotest.test_case "empty input" `Quick (fun () ->
        Alcotest.check hex "string" 0 (C.string "");
        Alcotest.check hex "update" 0 (C.update 0 (Bytes.of_string "abc") 3 0));
    Alcotest.test_case "known vectors" `Quick (fun () ->
        Alcotest.check hex "a" 0xe8b7be43 (C.string "a");
        Alcotest.check hex "pangram" 0x414fa339
          (C.string "The quick brown fox jumps over the lazy dog");
        Alcotest.check hex "4 KiB of zeros" 0xc71c0011 (C.bytes (Bytes.make 4096 '\000')));
    Alcotest.test_case "out-of-range slice rejected" `Quick (fun () ->
        Alcotest.check_raises "past the end" (Invalid_argument "index out of bounds")
          (fun () -> ignore (C.update 0 (Bytes.make 16 'x') 4 13))) ]

(* A random buffer and a slice [off, off+len) inside it; lengths are
   biased small so short inputs and every tail length 0..7 appear. *)
let gen_slice =
  QCheck.Gen.(
    let* n = frequency [ (3, int_range 0 24); (2, int_range 0 300); (1, int_range 4000 4200) ] in
    let* s = string_size ~gen:char (return n) in
    let* off = int_range 0 n in
    let* len = int_range 0 (n - off) in
    return (Bytes.of_string s, off, len))

let arb_slice =
  QCheck.make gen_slice ~print:(fun (b, off, len) ->
      Printf.sprintf "len(buf)=%d off=%d len=%d" (Bytes.length b) off len)

let prop_reference =
  QCheck.Test.make ~name:"update equals the byte-at-a-time reference" ~count:1000 arb_slice
    (fun (b, off, len) -> C.update 0 b off len = ref_update 0 b off len)

(* Checksumming a slice in pieces, split at random points, gives the
   checksum of the whole slice. *)
let prop_chained =
  QCheck.Test.make ~name:"chained updates equal one update" ~count:500
    QCheck.(pair arb_slice (list_of_size Gen.(int_range 0 6) small_nat))
    (fun ((b, off, len), cuts) ->
      let cuts = List.sort_uniq compare (List.map (fun c -> c mod (len + 1)) cuts) in
      let crc, last =
        List.fold_left
          (fun (crc, pos) cut -> (C.update crc b (off + pos) (cut - pos), cut))
          (0, 0) cuts
      in
      C.update crc b (off + last) (len - last) = ref_update 0 b off len)

let prop_string =
  QCheck.Test.make ~name:"string equals bytes" ~count:200 QCheck.string (fun s ->
      let b = Bytes.of_string s in
      C.string s = C.bytes b && C.string s = ref_update 0 b 0 (Bytes.length b))

let () =
  Alcotest.run "crc32"
    [ ("vectors", vectors);
      ( "properties",
        List.map QCheck_alcotest.to_alcotest [ prop_reference; prop_chained; prop_string ] ) ]
