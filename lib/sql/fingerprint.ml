(* Statement fingerprinting and per-fingerprint execution statistics
   (the pg_stat_statements analogue).

   A statement's fingerprint is a 64-bit FNV-1a hash (rendered as hex)
   of its *normalized* text: the token stream with every literal and
   parameter placeholder replaced by [?], identifiers and keywords
   case-folded, and whitespace/comments collapsed to single spaces.
   "SELECT A FROM t WHERE a=1" and "select a from t where a = 42"
   therefore share a fingerprint.

   The registry aggregates calls / rows / total+max elapsed time /
   plan-cache hits per fingerprint.  It is process-wide (statements
   from every open database handle aggregate together, like the rest
   of the Obs registries) and bounded: beyond [capacity] fingerprints,
   the least-called entry is evicted. *)

type stat = {
  fp : string;   (* hex fingerprint of the normalized text *)
  norm : string; (* normalized statement text *)
  mutable calls : int;
  mutable rows : int;          (* rows returned / affected, summed *)
  mutable total_s : float;
  mutable max_s : float;
  mutable plan_hits : int;     (* executions served from the plan cache *)
}

(* Normalized token spelling; [None] drops the token. *)
let token_norm = function
  | Lexer.Ident s -> Some (String.lowercase_ascii s)
  | Lexer.Str _ | Lexer.Int_lit _ | Lexer.Float_lit _ | Lexer.Question -> Some "?"
  | Lexer.Eof -> None
  | t -> Some (Lexer.token_to_string t)

(* Fallback for text the lexer rejects: case-fold and collapse runs of
   whitespace, so near-identical malformed inputs still coalesce. *)
let collapse_ws s =
  let buf = Buffer.create (String.length s) in
  let pending = ref false in
  String.iter
    (fun ch ->
      match ch with
      | ' ' | '\t' | '\n' | '\r' -> if Buffer.length buf > 0 then pending := true
      | ch ->
        if !pending then Buffer.add_char buf ' ';
        pending := false;
        Buffer.add_char buf (Char.lowercase_ascii ch))
    s;
  Buffer.contents buf

(* --- fold-aware collapse ----------------------------------------------- *)

(* The optimizer replaces whole constant expressions by their folded
   literal, so "WHERE a > 1 + 1" and "WHERE a > 2" compile to the same
   plan — they should land on the same fingerprint too.  After literal
   replacement, constant expressions *over* [?] are collapsed to a
   single [?] as a fixpoint: parenthesized [?], binary combinations of
   [?] (respecting operator precedence so "? + ? * a" keeps its shape),
   unary minus / NOT on [?], and builtin calls with all-constant
   arguments. *)

(* Keywords never end a value, so "WHERE - ?" may collapse while
   "a - ?" must not. *)
let keywords =
  [ "select"; "from"; "where"; "and"; "or"; "not"; "in"; "like"; "between"; "is";
    "null"; "case"; "when"; "then"; "else"; "end"; "group"; "by"; "having"; "order";
    "limit"; "offset"; "union"; "all"; "distinct"; "as"; "on"; "join"; "left";
    "inner"; "cross"; "values"; "set"; "asc"; "desc"; "of" ]

let ends_value t =
  t = "?" || t = ")"
  || (String.length t > 0
      && (let c = t.[0] in (c >= 'a' && c <= 'z') || c = '_')
      && not (List.mem t keywords))

(* Binding strength, as the parser binds: [||] tighter than [*];
   0 = not a binary operator. *)
let prec = function
  | "||" -> 6
  | "*" | "/" | "%" -> 5
  | "+" | "-" -> 4
  | "=" | "<>" | "<" | "<=" | ">" | ">=" -> 3
  | "and" -> 2
  | "or" -> 1
  | _ -> 0

let collapse_folds (toks : string list) : string list =
  let changed = ref true in
  let cur = ref toks in
  (* [name ( ?, ?, ... )] with every argument constant -> rest *)
  let const_call rest =
    let rec args = function
      | "?" :: ")" :: tl -> Some tl
      | "?" :: "," :: tl -> args tl
      | _ -> None
    in
    match rest with
    | "(" :: tl -> args tl
    | _ -> None
  in
  while !changed do
    changed := false;
    let rec rw prev toks =
      match toks with
      | [] -> []
      | (name :: rest) when Func.find name <> None && const_call rest <> None ->
        changed := true;
        rw prev ("?" :: Option.get (const_call rest))
      | "(" :: "?" :: ")" :: rest when not (ends_value prev) ->
        changed := true;
        rw prev ("?" :: rest)
      | "?" :: op :: "?" :: rest when prec op > 0 ->
        (* Collapse only when this application really is one constant
           subtree: a tighter operator on either side would have been
           parsed inside it. *)
        let nextp = match rest with nx :: _ -> prec nx | [] -> 0 in
        if prec prev >= prec op || nextp > prec op then "?" :: rw "?" (op :: "?" :: rest)
        else begin
          changed := true;
          rw prev ("?" :: rest)
        end
      | ("-" | "not") :: "?" :: rest when not (ends_value prev) && prec (List.nth_opt rest 0 |> Option.value ~default:"") = 0 ->
        changed := true;
        rw prev ("?" :: rest)
      | t :: rest -> t :: rw t rest
    in
    cur := rw "" !cur
  done;
  !cur

let normalize (sql : string) : string =
  match Lexer.tokenize sql with
  | toks -> String.concat " " (collapse_folds (List.filter_map token_norm toks))
  | exception Lexer.Error _ -> collapse_ws sql

(* 64-bit FNV-1a. *)
let fingerprint_of (norm : string) : string =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code ch))) 0x100000001b3L)
    norm;
  Printf.sprintf "%016Lx" !h

(* lint: allow — guarded by [mu] below, accessed via [locked] *)
let capacity = ref 512

(* The registry is process-wide and fed by every session on every
   domain: all access to the two tables below goes through [mu].
   Per-stat field bumps also happen under it — [record] is one lock
   round-trip per statement, far off the page-read hot path. *)
let mu = Mutex.create ()

let locked f = Mutex.lock mu; Fun.protect ~finally:(fun () -> Mutex.unlock mu) f

(* norm text -> stat.  lint: allow — all access mutex-protected above *)
let registry : (string, stat) Hashtbl.t = Hashtbl.create 64

(* raw sql -> norm memo, so the per-statement hot path re-lexes only
   texts it has never seen.  Reset wholesale when it outgrows its cap.
   lint: allow — all access mutex-protected above *)
let memo : (string, string) Hashtbl.t = Hashtbl.create 256
let memo_cap = 2048

let reset () =
  locked (fun () ->
      Hashtbl.reset registry;
      Hashtbl.reset memo)

let normalized_of_unlocked sql =
  match Hashtbl.find_opt memo sql with
  | Some n -> n
  | None ->
    let n = normalize sql in
    if Hashtbl.length memo >= memo_cap then Hashtbl.reset memo;
    Hashtbl.add memo sql n;
    n

let normalized_of sql = locked (fun () -> normalized_of_unlocked sql)

let evict_coldest () =
  let victim = ref None in
  Hashtbl.iter
    (fun k st ->
      match !victim with
      | Some (_, c) when c <= st.calls -> ()
      | _ -> victim := Some (k, st.calls))
    registry;
  match !victim with Some (k, _) -> Hashtbl.remove registry k | None -> ()

(* Record one completed execution of [sql]. *)
let record ~sql ~rows ~elapsed_s ~plan_hit =
  locked (fun () ->
      let norm = normalized_of_unlocked sql in
      let st =
        match Hashtbl.find_opt registry norm with
        | Some st -> st
        | None ->
          if Hashtbl.length registry >= !capacity then evict_coldest ();
          let st =
            { fp = fingerprint_of norm; norm; calls = 0; rows = 0; total_s = 0.;
              max_s = 0.; plan_hits = 0 }
          in
          Hashtbl.add registry norm st;
          st
      in
      st.calls <- st.calls + 1;
      st.rows <- st.rows + rows;
      st.total_s <- st.total_s +. elapsed_s;
      if elapsed_s > st.max_s then st.max_s <- elapsed_s;
      if plan_hit then st.plan_hits <- st.plan_hits + 1)

(* All fingerprints, most total time first. *)
let stats () : stat list =
  let all = locked (fun () -> Hashtbl.fold (fun _ st acc -> st :: acc) registry []) in
  List.sort (fun a b -> compare b.total_s a.total_s) all

let find ~sql =
  locked (fun () -> Hashtbl.find_opt registry (normalized_of_unlocked sql))
