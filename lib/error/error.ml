type t =
  | Parse of string
  | Validation of string
  | Conflict of { expected : int; actual : int }
  | Incomplete of string
  | Corrupt of string
  | Recovery of string
  | Io of string
  | Internal of string
  | Overloaded
  | Shutdown

let to_string = function
  | Parse m -> "parse error: " ^ m
  | Validation m -> "invalid: " ^ m
  | Conflict { expected; actual } ->
    Printf.sprintf "conflict: expected rendition %d, store is at %d" expected actual
  | Incomplete m -> "INCOMPLETE: " ^ m
  | Corrupt m -> "CORRUPT: " ^ m
  | Recovery m -> "recovery failed: " ^ m
  | Io m -> "io error: " ^ m
  | Internal m -> "internal error: " ^ m
  | Overloaded -> "overloaded: submission queue full"
  | Shutdown -> "shutting down"

let pp fmt e = Format.pp_print_string fmt (to_string e)

let validation m = Validation m

let parse m = Parse m

let corrupt m = Corrupt m

let incomplete m = Incomplete m

let recovery m = Recovery m

let io m = Io m
