type 'a t = 'a Shared_var.t array

let init ?(volatile = false) ~name n f =
  Array.init n (fun i -> Shared_var.make ~volatile ~name:(Loc_name.indexed name i) (f i))

let make ?volatile ~name n v = init ?volatile ~name n (fun _ -> v)
let length = Array.length
let cell a i = a.(i)
let read a i = Shared_var.read a.(i)
let write a i v = Shared_var.write a.(i) v
let cas a i expected desired = Shared_var.cas a.(i) expected desired
let exchange a i v = Shared_var.exchange a.(i) v
let update a i f = Shared_var.update a.(i) f
let peek a i = Shared_var.peek a.(i)
let poke a i v = Shared_var.poke a.(i) v
