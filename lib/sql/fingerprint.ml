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
   single [?]: parenthesized [?], binary combinations of
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

(* One left-to-right shift-reduce pass.  [st] holds the tokens emitted
   so far, the last first; after every shift, the rewrites that end at
   the top of [st] are applied, with [la] (the next input token, "" at
   the end) as right context, until none applies.  A rewrite replaces
   the tokens it matches with one [?], so the pass is linear in the
   number of tokens, and it ends in the form that repeating the
   rewrites over the whole list until nothing changes would reach. *)
let collapse_folds (toks : string list) : string list =
  let top = function t :: _ -> t | [] -> "" in
  (* Below [?, ?, ... ?] (the last first, after the closing paren):
     the call's name and what is under it. *)
  let rec call_args = function
    | "?" :: "," :: rest -> call_args rest
    | "?" :: "(" :: name :: below when Func.find name <> None -> Some below
    | _ -> None
  in
  let rec reduce la st =
    match st with
    | ")" :: rest -> (
      match call_args rest, rest with
      (* [name ( ?, ?, ... )] with every argument constant *)
      | Some below, _ -> reduce la ("?" :: below)
      | None, "?" :: "(" :: below when not (ends_value (top below)) -> reduce la ("?" :: below)
      | None, _ -> st)
    | "?" :: op :: "?" :: below when prec op > 0 ->
      (* Collapse only when this application really is one constant
         subtree: a tighter operator on either side would have been
         parsed inside it, and the AND right after BETWEEN belongs to
         BETWEEN. *)
      let prev = top below in
      if prec prev >= prec op || prec la > prec op || (prev = "between" && op = "and") then st
      else reduce la ("?" :: below)
    | "?" :: ("-" | "not") :: below when (not (ends_value (top below))) && prec la = 0 ->
      reduce la ("?" :: below)
    | _ -> st
  in
  let rec shift st = function
    | t :: rest -> shift (reduce (top rest) (t :: st)) rest
    | [] -> List.rev st
  in
  shift [] toks

let normalize (sql : string) : string =
  match Lexer.tokenize sql with
  | toks -> String.concat " " (collapse_folds (List.filter_map token_norm toks))
  | exception Sql_error.Error _ -> collapse_ws sql

(* 64-bit FNV-1a. *)
let fingerprint_of (norm : string) : string =
  let h = ref 0xcbf29ce484222325L in
  String.iter
    (fun ch -> h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code ch))) 0x100000001b3L)
    norm;
  Printf.sprintf "%016Lx" !h

(* Fingerprints kept; past it the least-called one is evicted. *)
let capacity = 512

(* The registry is process-wide and fed by every session on every
   domain: all access to the two tables below goes through [mu].
   Per-stat field bumps also happen under it.  Normalizing (lexing a
   statement text) happens outside it, so one session's long statement
   never stalls another's accounting. *)
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

let normalized_of sql =
  match locked (fun () -> Hashtbl.find_opt memo sql) with
  | Some n -> n
  | None ->
    let n = normalize sql in
    locked (fun () ->
        if Hashtbl.length memo >= memo_cap then Hashtbl.reset memo;
        Hashtbl.replace memo sql n);
    n

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
  let norm = normalized_of sql in
  locked (fun () ->
      let st =
        match Hashtbl.find_opt registry norm with
        | Some st -> st
        | None ->
          if Hashtbl.length registry >= capacity then evict_coldest ();
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
  let norm = normalized_of sql in
  locked (fun () -> Hashtbl.find_opt registry norm)
