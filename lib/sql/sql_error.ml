(* The one statement error: every SQL and RQL failure a caller can cause
   raises it.  [Engine.Error] and [Rql.Error] are this exception. *)

exception Error of string

let error fmt = Printf.ksprintf (fun s -> raise (Error s)) fmt
