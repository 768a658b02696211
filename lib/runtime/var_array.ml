type 'a t = { base : string; cells : 'a Shared_var.t array }

let init ?(volatile = false) ~name n f =
  {
    base = name;
    cells =
      Array.init n (fun i ->
          Shared_var.make ~volatile ~name:(Loc_name.indexed name i) (f i));
  }

let make ?volatile ~name n v = init ?volatile ~name n (fun _ -> v)
let length a = Array.length a.cells
let base_name a = a.base
let cell a i = a.cells.(i)
let read a i = Shared_var.read a.cells.(i)
let write a i v = Shared_var.write a.cells.(i) v
let cas a i expected desired = Shared_var.cas a.cells.(i) expected desired
let exchange a i v = Shared_var.exchange a.cells.(i) v
let update a i f = Shared_var.update a.cells.(i) f
let peek a i = Shared_var.peek a.cells.(i)
let poke a i v = Shared_var.poke a.cells.(i) v
