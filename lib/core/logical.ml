type mapping = Group of Topo.Graph.port list | Splice of Viper.Segment.t list

(* [slots.(p)] is port [p]'s mapping: empty until the first [set], then
   one slot per one-byte VIPER port *)
type t = { mutable slots : mapping option array; mutable count : int }

let create () = { slots = [||]; count = 0 }

let check_port port =
  if port < 0 || port > 255 then invalid_arg "Logical: port outside 0-255"

let lookup t ~port =
  if port >= 0 && port < Array.length t.slots then Array.unsafe_get t.slots port
  else None

let set t ~port mapping =
  check_port port;
  (match mapping with
  | Group [] -> invalid_arg "Logical.set: empty group"
  | Splice [] -> invalid_arg "Logical.set: empty splice"
  | Group _ | Splice _ -> ());
  if Array.length t.slots = 0 then t.slots <- Array.make 256 None;
  if Option.is_none t.slots.(port) then t.count <- t.count + 1;
  t.slots.(port) <- Some mapping

let clear t ~port =
  if Option.is_some (lookup t ~port) then begin
    t.slots.(port) <- None;
    t.count <- t.count - 1
  end

let mappings t = t.count
