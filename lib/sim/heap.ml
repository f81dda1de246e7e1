(* Struct-of-arrays binary min-heap. Heap position [i] is the three ints
   [times.(i)], [seqs.(i)] and [slots.(i)]; the value itself sits in
   [pool.(slots.(i))] and never moves while it is queued. A comparison
   reads two ints and allocates nothing, and sifting shifts a hole
   through int arrays only: no write barrier and no boxed value is
   touched per level, just one [pool] store at push and one at pop.

   [slots] is always a permutation of the pool indices: positions below
   [len] name the slots in use, positions from [len] up name the free
   ones, so a push takes [slots.(len)] and a pop leaves the freed slot
   at the position the heap just gave up. A vacated slot is reset to
   [vacant], an immediate, so a popped value is never kept live by the
   heap: its closure, and any packet bytes that closure captured, become
   garbage as soon as the caller drops them. [vacant] is never read back
   as an ['a]. Because it is an immediate, [Array.make] builds an
   ordinary block even when ['a] is [float], and the polymorphic array
   primitives used here then store floats boxed, so no flat float array
   is ever created.

   Every index below is kept within [len <= Array.length times] by
   [push] and [pop_min], which is what makes the unchecked accesses
   safe. *)

type 'a t = {
  mutable times : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pool : 'a array;
  mutable len : int;
}

let vacant () : 'a = Obj.magic 0
let create () = { times = [||]; seqs = [||]; slots = [||]; pool = [||]; len = 0 }
let is_empty h = h.len = 0
let size h = h.len

(* Only called when full, so the new pool slots [len .. cap - 1] are the
   free ones, and they go at the same positions of [slots]. *)
let grow h =
  let len = h.len in
  let cap = max 16 (2 * len) in
  let extend a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 len;
    b
  in
  h.times <- extend h.times 0;
  h.seqs <- extend h.seqs 0;
  h.slots <- Array.init cap (fun i -> if i < len then h.slots.(i) else i);
  h.pool <- extend h.pool (vacant ())

let[@inline] lt (t1 : int) (s1 : int) t2 s2 = t1 < t2 || (t1 = t2 && s1 < s2)

let[@inline] place h i ~time ~seq slot =
  Array.unsafe_set h.times i time;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.slots i slot

(* move the entry at [src] into the hole at [dst] *)
let[@inline] move h ~src ~dst =
  place h dst ~time:(Array.unsafe_get h.times src)
    ~seq:(Array.unsafe_get h.seqs src) (Array.unsafe_get h.slots src)

let rec sift_up h i ~time ~seq slot =
  if i = 0 then place h i ~time ~seq slot
  else begin
    let parent = (i - 1) / 2 in
    if lt time seq (Array.unsafe_get h.times parent) (Array.unsafe_get h.seqs parent)
    then begin
      move h ~src:parent ~dst:i;
      sift_up h parent ~time ~seq slot
    end
    else place h i ~time ~seq slot
  end

(* The smaller child (the left one on a tie) rises into the hole while it
   sorts strictly before the moving entry: the same choices the classic
   swap-based sift makes, so the layout, and hence the pop order even
   among equal keys, is the one a swapping heap would produce. *)
let rec sift_down h i ~time ~seq slot =
  let l = (2 * i) + 1 in
  if l >= h.len then place h i ~time ~seq slot
  else begin
    let r = l + 1 in
    let tl = Array.unsafe_get h.times l and sl = Array.unsafe_get h.seqs l in
    let c =
      if r < h.len && lt (Array.unsafe_get h.times r) (Array.unsafe_get h.seqs r) tl sl
      then r
      else l
    in
    if lt (Array.unsafe_get h.times c) (Array.unsafe_get h.seqs c) time seq then begin
      move h ~src:c ~dst:i;
      sift_down h c ~time ~seq slot
    end
    else place h i ~time ~seq slot
  end

let push h ~time ~seq v =
  if h.len = Array.length h.times then grow h;
  let i = h.len in
  let slot = Array.unsafe_get h.slots i in
  Array.unsafe_set h.pool slot v;
  h.len <- i + 1;
  sift_up h i ~time ~seq slot

let min_time h =
  if h.len = 0 then invalid_arg "Heap.min_time: empty heap";
  Array.unsafe_get h.times 0

let min_seq h =
  if h.len = 0 then invalid_arg "Heap.min_seq: empty heap";
  Array.unsafe_get h.seqs 0

let pop_min h =
  if h.len = 0 then invalid_arg "Heap.pop_min: empty heap";
  let slot = Array.unsafe_get h.slots 0 in
  let v = Array.unsafe_get h.pool slot in
  Array.unsafe_set h.pool slot (vacant ());
  let last = h.len - 1 in
  h.len <- last;
  let time = Array.unsafe_get h.times last
  and seq = Array.unsafe_get h.seqs last
  and moving = Array.unsafe_get h.slots last in
  Array.unsafe_set h.slots last slot;
  if last > 0 then sift_down h 0 ~time ~seq moving;
  v

let pop h =
  if h.len = 0 then None
  else begin
    let time = min_time h and seq = min_seq h in
    Some (time, seq, pop_min h)
  end
