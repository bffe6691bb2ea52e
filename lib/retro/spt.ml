(* Snapshot page tables: the per-snapshot map from page id to Pagelog
   location, built on demand by scanning the Maplog (paper §4).  A page
   id indexes its slot; -1 marks a page shared with the current
   database.  The scan reports mappings in log order and the first to
   reach an empty slot wins, so the array is its own de-duplication set. *)

type t = { snap_id : int; slots : int array; scan_len : int }

let build maplog snap_id =
  let slots = Array.make (Maplog.boundary maplog snap_id).Maplog.db_pages (-1) in
  let f pid off = if slots.(pid) < 0 then slots.(pid) <- off in
  { snap_id; slots; scan_len = Maplog.scan_from maplog snap_id ~f }

let snap_id t = t.snap_id
let db_pages t = Array.length t.slots
let scan_len t = t.scan_len
let in_snapshot t pid = pid >= 0 && pid < Array.length t.slots
let find t pid = if in_snapshot t pid && t.slots.(pid) >= 0 then Some t.slots.(pid) else None
let iter t ~f = Array.iteri (fun pid off -> if off >= 0 then f pid off) t.slots
let cardinal t = Array.fold_left (fun n off -> if off >= 0 then n + 1 else n) 0 t.slots
