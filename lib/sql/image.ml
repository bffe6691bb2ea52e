(* Database images: the one codec behind backups, checkpoints and RQL
   context files.

   A database image is the pager's committed pages plus, for a
   snapshottable database, the whole Retro archive.  Both keep their
   *stored* CRCs (Storage.Pager.dump, Retro.export), so a page or
   archive block that failed its checksum before a save, checkpoint or
   context save still fails it after the load: an image never hides
   damage the original had.

   Every image file has the same frame:

     magic (8 bytes) | u32 LE format version | u32 LE payload length |
     u32 LE CRC32(payload) | payload (Marshal)

   The magic names the kind (a backup loaded as a context file fails
   typed), the length must match the file exactly, and the CRC vouches
   for the payload before Marshal sees it — a truncated, padded or
   bit-flipped file fails with {!Sql_error.Error}, never decodes into garbage.

   Files are written to a temporary name, flushed and closed (so an I/O
   error raises) and only then renamed over the destination: a failed
   or interrupted write never leaves a torn file under the real name. *)

let error = Sql_error.error

type t = {
  pager : Storage.Pager.image;
  retro : Retro.image option;
}

let capture pager retro =
  { pager = Storage.Pager.dump pager; retro = Option.map Retro.export retro }

let restore img =
  let pager = Storage.Pager.restore img.pager in
  (pager, Option.map (Retro.import pager) img.retro)

(* The payload type is a phantom: the magic is what ties a file to it. *)
type 'a kind = { magic : string; what : string }

let backup : t kind = { magic = "RQLDB002"; what = "database" }
let context : (t * t) kind = { magic = "RQLCTX02"; what = "context" }
let checkpoint : (int * t) kind = { magic = "RQLCKPT1"; what = "checkpoint" }

(* One format version for every kind; a file from an older codec fails
   with "unsupported image format version". *)
let version = 3
let header_size = 20 (* magic + version + length + crc *)

let header kind payload =
  let b = Bytes.create header_size in
  Bytes.blit_string kind.magic 0 b 0 8;
  Bytes.set_int32_le b 8 (Int32.of_int version);
  Bytes.set_int32_le b 12 (Int32.of_int (String.length payload));
  Bytes.set_int32_le b 16 (Int32.of_int (Storage.Crc32.string payload));
  Bytes.unsafe_to_string b

(* Check the frame of [file] (a whole image file's bytes) against
   [kind]; returns the payload length and CRC. *)
let parse_header kind ~path file =
  let total = String.length file in
  if total < header_size then error "%s: too short to be an image (%d bytes)" path total;
  let u32 off = Int32.to_int (String.get_int32_le file off) land 0xffffffff in
  let m = String.sub file 0 8 in
  if m <> kind.magic then error "%s: not a %s image (bad magic %S)" path kind.what m;
  let v = u32 8 in
  if v <> version then error "%s: unsupported image format version %d" path v;
  let len = u32 12 and have = total - header_size in
  if have < len then error "%s: truncated image (%d payload bytes, expected %d)" path have len;
  if have > len then error "%s: %d trailing bytes after the image" path (have - len);
  (len, u32 16)

(* [tick] fires once mid-payload and once before the rename: the crash
   matrix's torn-image and pre-rename injection points. *)
let write ?(tick = ignore) ?tmp kind ~path v =
  let payload = Marshal.to_string v [] in
  let tmp = Option.value tmp ~default:(path ^ ".tmp") in
  let half = String.length payload / 2 in
  try
    let oc = open_out_bin tmp in
    Fun.protect
      ~finally:(fun () -> close_out_noerr oc)
      (fun () ->
        output_string oc (header kind payload);
        output_substring oc payload 0 half;
        tick ();
        output_substring oc payload half (String.length payload - half);
        close_out oc);
    tick ();
    Sys.rename tmp path
  with Sys_error m -> error "%s" m

let read kind ~path =
  let file = try In_channel.with_open_bin path In_channel.input_all with Sys_error m -> error "%s" m in
  let len, crc = parse_header kind ~path file in
  if Storage.Crc32.update 0 (Bytes.unsafe_of_string file) header_size len <> crc then
    error "%s: image checksum mismatch (corrupt or bit-flipped)" path;
  (* the CRC already vouched for the bytes; a Marshal failure here means
     a same-size forgery or an incompatible runtime *)
  match Marshal.from_string file header_size with
  | v -> v
  | exception Failure m -> error "%s: image payload does not unmarshal: %s" path m
