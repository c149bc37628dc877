(* Growable columns for readers that do not know their length in
   advance. Values go into blocks that double up to [max_block] and never
   move, so growing copies nothing; [to_array] copies each value once,
   into an exact-size array. *)

type 'a t = {
  mutable full : 'a array list;  (* filled blocks, newest first *)
  mutable block : 'a array;  (* the block being filled; [||] at first *)
  mutable fill : int;  (* used slots of [block] *)
  mutable length : int;
}

let max_block = 4096

let create () = { full = []; block = [||]; fill = 0; length = 0 }
let length c = c.length

let push c x =
  let size = Array.length c.block in
  if c.fill = size then begin
    if size > 0 then c.full <- c.block :: c.full;
    c.block <- Array.make (min max_block (max 16 (2 * size))) x;
    c.fill <- 0
  end;
  Array.unsafe_set c.block c.fill x;
  c.fill <- c.fill + 1;
  c.length <- c.length + 1

let last c =
  if c.length = 0 then invalid_arg "Column.last: empty column";
  c.block.(c.fill - 1)

let to_array c =
  if c.full = [] then Array.sub c.block 0 c.fill
  else Array.concat (List.rev (Array.sub c.block 0 c.fill :: c.full))
