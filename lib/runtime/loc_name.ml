let small = Array.init 256 Int.to_string
let digits i = if i >= 0 && i < Array.length small then small.(i) else Int.to_string i
let indexed base i = base ^ digits i
